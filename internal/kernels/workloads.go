package kernels

import (
	"fmt"

	"repro/internal/cedarfort"
	"repro/internal/core"
	"repro/internal/workload"
)

// init registers every kernel in the workload registry, so any driver
// importing this package (cmd/cedarsim, cmd/cedard, the table
// generators) can run kernels by name. The short names are the paper's
// kernel mnemonics plus the two Perfect-code I/O workloads.
func init() {
	workload.Register(workload.New("rk",
		"rank-64 matrix update in Table 1's three memory modes (Params.Mode)",
		func(m *core.Machine, p workload.Params, _ workload.Attachments) (workload.Result, error) {
			n := p.Size
			if n == 0 {
				n = 128
			}
			if n%StripLen != 0 {
				return workload.Result{}, fmt.Errorf("kernels: rank-64 n=%d not a multiple of %d", n, StripLen)
			}
			// A (n x 64), B (64 x n) and C (n x n).
			if err := m.FitGlobal("kernels: rank-64", uint64(n), uint64(n)+128, 0); err != nil {
				return workload.Result{}, err
			}
			return RunRank64(m, NewRank64Input(n), p)
		}))
	workload.Register(workload.New("vl",
		"vector load stream (Table 2 VL)",
		func(m *core.Machine, p workload.Params, _ workload.Attachments) (workload.Result, error) {
			return RunVectorLoad(m, p)
		}))
	workload.Register(workload.New("tm",
		"tridiagonal matrix-vector multiply (Table 2 TM)",
		func(m *core.Machine, p workload.Params, _ workload.Attachments) (workload.Result, error) {
			return RunTriMatVec(m, p)
		}))
	workload.Register(workload.New("cg",
		"conjugate-gradient solver on a 5-diagonal system (Table 2 CG, Section 4.3)",
		func(m *core.Machine, p workload.Params, att workload.Attachments) (workload.Result, error) {
			n := p.Size
			if n == 0 {
				n = m.NumCEs() * StripLen * 2
			}
			// Checked before NewCGProblem, which panics on a system too
			// small for its outer diagonals.
			if err := checkCGSize(n, m.NumCEs()); err != nil {
				return workload.Result{}, err
			}
			// x, r, q and p, plus two partial sums per CE.
			if err := m.FitGlobal("kernels: CG", uint64(n), 4, 2*uint64(m.NumCEs())); err != nil {
				return workload.Result{}, err
			}
			w := 64
			if n <= 2*w {
				w = 5
			}
			rt := cedarfort.New(m, cedarfort.DefaultConfig())
			if att.Phases != nil {
				rt.Phases = att.Phases
			}
			res, err := RunCG(m, rt, NewCGProblem(n, w), p)
			if err != nil {
				return workload.Result{}, err
			}
			r := res.Result
			r.Notes = append(r.Notes,
				fmt.Sprintf("CG residual after %d iterations: %.3e", res.Iterations, res.FinalResidual))
			return r, nil
		}))
	workload.Register(workload.New("bdna",
		"BDNA-style molecular dynamics: serial formatted trajectory writes between compute steps",
		RunBDNA))
	workload.Register(workload.New("mg3d",
		"MG3D-style seismic migration: per-cluster parallel raw trace reads before each compute step",
		RunMG3D))
}
