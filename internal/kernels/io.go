package kernels

import (
	"fmt"

	"repro/internal/cedarfort"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/perfect"
	"repro/internal/perfmon"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xylem"
)

// The two I/O-heavy Perfect codes of the paper's per-code discussion,
// modeled as engine-driven workloads over the isa.IO path. Their shape —
// who does I/O, how much, formatted or raw, and how much compute rides
// between transfers — comes from the perfect profiles, so the kernels
// reproduce the profiles' compute-to-I/O wall-clock ratios on the
// simulated machine rather than hard-coding cycle counts:
//
//   - BDNA writes one formatted trajectory record per timestep through a
//     single sequential file: the machine leader (CE 0) issues the whole
//     record, serializing machine-wide through its cluster's IP — the
//     behavior that makes BDNA's 111 s automatable time ~38% I/O and the
//     hand optimization (drop the formatting) worth 41 s.
//   - MG3D reads seismic trace partitions raw and in parallel: each
//     cluster's leader CE reads its cluster's share before the step's
//     compute, so I/O scales with cluster count — the pre-elimination
//     form of the code whose studied version removed file I/O entirely
//     (Table 3 footnote).
type ioKernelSpec struct {
	name       string
	formatted  bool
	perCluster bool // per-cluster leader partitions (MG3D) vs machine leader (BDNA)
	ioFirst    bool // read before compute (MG3D) vs write after (BDNA)
	// ratio is the profile-derived compute:I/O wall-clock ratio the
	// kernel's per-strip compute padding reproduces.
	ratio float64
	// update is the per-element step function; aux is the optional
	// second input array (nil when the kernel has none).
	update func(step, i int, cur, aux []float64) float64
	aux    []float64
}

// bdnaSpec derives BDNA's shape from its perfect profile: the formatted
// I/O volume is charged at the formatted rate, and whatever remains of
// the published automatable time is compute.
func bdnaSpec() (ioKernelSpec, error) {
	suite, err := perfect.Suite()
	if err != nil {
		return ioKernelSpec{}, err
	}
	p := perfect.ByName(suite, "BDNA")
	r := perfect.DefaultRates()
	ioSec := p.IOFormattedWords * r.FormattedIOSecPerWord
	if ioSec <= 0 || p.Targets.AutoSeconds <= ioSec {
		return ioKernelSpec{}, fmt.Errorf("kernels: BDNA profile I/O time %.3gs inconsistent with %.3gs total",
			ioSec, p.Targets.AutoSeconds)
	}
	return ioKernelSpec{
		name:      "BDNA",
		formatted: true,
		ratio:     (p.Targets.AutoSeconds - ioSec) / ioSec,
		update: func(_, i int, cur, _ []float64) float64 {
			// One smoothing sweep over the coordinate array (the
			// force-averaging flavor of the MD step), clamped at the ends.
			im, ip := i-1, i+1
			if im < 0 {
				im = 0
			}
			if ip >= len(cur) {
				ip = len(cur) - 1
			}
			return 0.5*cur[i] + 0.25*cur[im] + 0.25*cur[ip]
		},
	}, nil
}

// mg3dSpec derives MG3D's shape from its perfect profile: the studied
// version eliminated its file I/O, so the recorded eliminated raw volume
// is charged at the raw rate against the full published compute time —
// the pre-elimination program this kernel models.
func mg3dSpec(aux []float64) (ioKernelSpec, error) {
	suite, err := perfect.Suite()
	if err != nil {
		return ioKernelSpec{}, err
	}
	p := perfect.ByName(suite, "MG3D")
	r := perfect.DefaultRates()
	ioSec := p.IOEliminatedRawWords * r.RawIOSecPerWord
	if ioSec <= 0 {
		return ioKernelSpec{}, fmt.Errorf("kernels: MG3D profile records no eliminated I/O volume")
	}
	return ioKernelSpec{
		name:       "MG3D",
		perCluster: true,
		ioFirst:    true,
		ratio:      p.Targets.AutoSeconds / ioSec,
		update: func(step, i int, cur, aux []float64) float64 {
			// Accumulate the freshly read trace into the migration image
			// with a step-dependent weight.
			return cur[i] + aux[i]/float64(step+1)
		},
		aux: aux,
	}, nil
}

// RunBDNA runs the BDNA-style workload: Params.Iterations timesteps
// (default 3) over a Params.Size-word coordinate array (default 2
// strips per CE), each ending with the leader's formatted whole-array
// trajectory write and a machine barrier.
func RunBDNA(m *core.Machine, p workload.Params, att workload.Attachments) (Result, error) {
	spec, err := bdnaSpec()
	if err != nil {
		return Result{}, err
	}
	return runIOKernel(m, spec, p, att)
}

// RunMG3D runs the MG3D-style workload: Params.Iterations migration
// steps (default 3) over a Params.Size-word image (default 2 strips
// per CE), each beginning with every cluster leader's raw read of its
// trace partition.
func RunMG3D(m *core.Machine, p workload.Params, att workload.Attachments) (Result, error) {
	// The trace array is sized in runIOKernel once the problem size is
	// known; hand the spec a slice header it can fill there.
	aux := []float64{}
	spec, err := mg3dSpec(aux)
	if err != nil {
		return Result{}, err
	}
	return runIOKernel(m, spec, p, att)
}

// runIOKernel drives one I/O-heavy Perfect-code model: steps of
// (optional leader read) -> strip-mined compute -> (optional leader
// write) -> machine barrier, with per-strip compute padding sized so the
// kernel's compute-to-I/O wall-clock ratio matches the profile's.
func runIOKernel(m *core.Machine, spec ioKernelSpec, p workload.Params, att workload.Attachments) (Result, error) {
	nces := m.NumCEs()
	nclusters := len(m.Clusters)
	cesPerCluster := m.Config().Cluster.CEs
	n := p.Size
	if n == 0 {
		n = nces * StripLen * 2
	}
	steps := p.Iterations
	if steps == 0 {
		steps = 3
	}
	if n%(nces*StripLen) != 0 {
		return Result{}, fmt.Errorf("kernels: %s n=%d not a multiple of %d", spec.name, n, nces*StripLen)
	}
	arrays := uint64(2) // the double buffer, and MG3D's traces
	if spec.aux != nil {
		arrays++
	}
	if err := m.FitGlobal("kernels: "+spec.name, uint64(n), arrays, 0); err != nil {
		return Result{}, err
	}

	// Functional state: a double-buffered array stepped in place, plus
	// the optional second input (MG3D's traces).
	buf := [2][]float64{make([]float64, n), make([]float64, n)}
	r := sim.NewRand(11)
	for i := range buf[0] {
		buf[0][i] = r.Float64()
	}
	aux := spec.aux
	if aux != nil {
		aux = make([]float64, n)
		for i := range aux {
			aux[i] = r.Float64() - 0.5
		}
		spec.aux = aux
	}

	// Timing address layout.
	m.AllocGlobalReset()
	base := [2]uint64{m.AllocGlobal(uint64(n)), m.AllocGlobal(uint64(n))}
	var auxBase uint64
	if aux != nil {
		auxBase = m.AllocGlobal(uint64(n))
	}

	// I/O volume per leader per step, and the wall-clock the IPs spend
	// on it (leaders of different clusters transfer in parallel; BDNA's
	// single leader serializes the whole record through one IP).
	ioWords := n
	if spec.perCluster {
		ioWords = n / nclusters
	}
	wordCycles := xylem.TransferPerWord
	if spec.formatted {
		wordCycles += xylem.FormatPerWord
	}
	ioWall := float64(ioWords) * float64(wordCycles)

	// Per-strip compute padding: all CEs compute in parallel, so each
	// CE's per-step compute wall must be ratio * ioWall, spread over its
	// strips.
	seg := n / nces
	stripsPerCE := seg / StripLen
	extraPerStrip := sim.Cycle(spec.ratio*ioWall/float64(stripsPerCE) + 0.5)

	rt := cedarfort.New(m, cedarfort.DefaultConfig())
	rt.Phases = att.Phases
	bar := rt.NewBarrier(nces)

	var pr *perfmon.PrefetchProbe
	if p.Probe && p.Prefetch {
		pr = perfmon.AttachPrefetch(m.CE(0).PFU())
	}

	for id := 0; id < nces; id++ {
		ceID := id
		isLeader := ceID == 0
		if spec.perCluster {
			isLeader = ceID%cesPerCluster == 0
		}
		lo, hi := ceID*seg, (ceID+1)*seg
		// step is the step whose operations were emitted last, which is
		// the step running: a CE completes each operation before it asks
		// for the next. The strip operations depend on the step only
		// through its buffer parity and the step their stores read here,
		// so they are built once per parity and re-emitted.
		step := -1
		var strips [2][]*isa.Op
		for parity := range min(steps, 2) {
			cur, nxt := buf[parity], buf[1-parity]
			curB, nxtB := base[parity], base[1-parity]
			var ops []*isa.Op
			for stripLo := lo; stripLo < hi; stripLo += StripLen {
				ops = vloadOps(ops, p.Prefetch, curB, stripLo, 2)
				if aux != nil {
					ops = vloadOps(ops, p.Prefetch, auxBase, stripLo, 1)
				}
				if extraPerStrip > 0 {
					ops = append(ops, isa.NewCompute(extraPerStrip))
				}
				st := isa.NewVectorStore(isa.Addr{Space: isa.Global, Word: nxtB + uint64(stripLo)}, StripLen, 1, 0)
				base := stripLo
				st.Do = func() {
					for i := base; i < base+StripLen; i++ {
						nxt[i] = spec.update(step, i, cur, aux)
					}
				}
				ops = append(ops, st)
			}
			strips[parity] = ops
		}
		if testHookOps != nil {
			testHookOps(strips[:])
		}
		g := isa.NewGen(func(g *isa.Gen) bool {
			if step+1 >= steps {
				return false
			}
			step++
			if isLeader && spec.ioFirst {
				emitIOStatement(g, spec, step, ceID, ioWords)
			}
			g.Emit(strips[step%2]...)
			if isLeader && !spec.ioFirst {
				emitIOStatement(g, spec, step, ceID, ioWords)
			}
			bar.Emit(g)
			return true
		})
		m.CE(ceID).SetProgram(g)
	}

	start := m.Eng.Now()
	budget := sim.Cycle((spec.ratio+1)*ioWall*float64(steps)*3) + 10_000_000
	end, err := m.RunUntilIdle(budget)
	if err != nil {
		return Result{}, err
	}
	check := 0.0
	for _, v := range buf[steps%2] {
		check += v
	}

	kind := "raw"
	if spec.formatted {
		kind = "formatted"
	}
	res := finish(fmt.Sprintf("%s %s-I/O", spec.name, kind), m, start, end, check, pr)
	var reqs, moved int64
	for _, clu := range m.Clusters {
		reqs += clu.IPs.Requests
		moved += clu.IPs.WordsMoved
	}
	measured := (float64(end-start) - ioWall*float64(steps)) / (ioWall * float64(steps))
	res.Notes = append(res.Notes,
		fmt.Sprintf("%s I/O: %d requests, %d %s words through the cluster IPs", spec.name, reqs, moved, kind),
		fmt.Sprintf("%s compute/I-O wall ratio: %.2f (profile target %.2f)", spec.name, measured, spec.ratio))
	return res, nil
}

// emitIOStatement emits one blocking Fortran I/O statement (syscall
// issue + parked transfer) labeled for ErrDeadline diagnostics.
func emitIOStatement(g *isa.Gen, spec ioKernelSpec, step, ceID, words int) {
	op := isa.NewIORequest(int64(words), spec.formatted)
	op.IOLabel = fmt.Sprintf("%s step %d ce%d", spec.name, step, ceID)
	g.Emit(isa.NewCompute(2), op)
}
