package kernels

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cedarfort"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/workload"
)

// kernel runs one workload on a machine under the shared Params, with
// runtime observers passed separately.
type kernel func(m *core.Machine, p workload.Params, att workload.Attachments) (job.Result, error)

// table maps each workload name to its kernel: the paper's kernel
// mnemonics plus the two Perfect-code I/O workloads.
var table = map[string]kernel{
	// Rank-64 matrix update in Table 1's three memory modes (Params.Mode).
	"rk": func(m *core.Machine, p workload.Params, _ workload.Attachments) (job.Result, error) {
		n := p.Size
		if n == 0 {
			n = 128
		}
		if n%StripLen != 0 {
			return job.Result{}, fmt.Errorf("kernels: rank-64 n=%d not a multiple of %d", n, StripLen)
		}
		// A (n x 64), B (64 x n) and C (n x n).
		if err := m.FitGlobal("kernels: rank-64", uint64(n), uint64(n)+128, 0); err != nil {
			return job.Result{}, err
		}
		return runRank64(m, newRank64Input(n), p)
	},
	// Vector load stream (Table 2 VL).
	"vl": func(m *core.Machine, p workload.Params, _ workload.Attachments) (job.Result, error) {
		return runVectorLoad(m, p)
	},
	// Tridiagonal matrix-vector multiply (Table 2 TM).
	"tm": func(m *core.Machine, p workload.Params, _ workload.Attachments) (job.Result, error) {
		return runTriMatVec(m, p)
	},
	// Conjugate-gradient solver on a 5-diagonal system (Table 2 CG,
	// Section 4.3).
	"cg": func(m *core.Machine, p workload.Params, att workload.Attachments) (job.Result, error) {
		n := p.Size
		if n == 0 {
			n = m.NumCEs() * StripLen * 2
		}
		// Checked before newCGProblem, which panics on a system too
		// small for its outer diagonals.
		if err := checkCGSize(n, m.NumCEs()); err != nil {
			return job.Result{}, err
		}
		// x, r, q and p, plus two partial sums per CE.
		if err := m.FitGlobal("kernels: CG", uint64(n), 4, 2*uint64(m.NumCEs())); err != nil {
			return job.Result{}, err
		}
		w := 64
		if n <= 2*w {
			w = 5
		}
		rt := cedarfort.New(m, cedarfort.DefaultConfig())
		rt.Phases = att.Phases
		res, err := runCG(m, rt, newCGProblem(n, w), p)
		if err != nil {
			return job.Result{}, err
		}
		r := res.Result
		r.Notes = append(r.Notes,
			fmt.Sprintf("CG residual after %d iterations: %.3e", res.Iterations, res.FinalResidual))
		return r, nil
	},
	// BDNA-style molecular dynamics: serial formatted trajectory writes
	// between compute steps.
	"bdna": runBDNA,
	// MG3D-style seismic migration: per-cluster parallel raw trace reads
	// before each compute step.
	"mg3d": runMG3D,
}

// Run runs the workload named name on m. An unknown name errors with the
// available names. The parameters are not checked here: a job's are
// checked by job.Spec.Normalized before runner.Execute gets this far,
// and the exhibits that call Run directly pass fixed, valid ones.
func Run(name string, m *core.Machine, p workload.Params, att workload.Attachments) (job.Result, error) {
	k, ok := table[name]
	if !ok {
		return job.Result{}, fmt.Errorf("kernels: unknown workload %q (available: %s)",
			name, strings.Join(Names(), ", "))
	}
	return k(m, p, att)
}

// Names returns the workload names, sorted.
func Names() []string {
	names := make([]string, 0, len(table))
	for name := range table {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
