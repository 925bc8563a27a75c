package kernels

import (
	"fmt"
	"math"

	"repro/internal/ce"
	"repro/internal/cedarfort"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/job"
	"repro/internal/perfmon"
	"repro/internal/sim"
	"repro/internal/workload"
)

// cgProblem is a symmetric positive-definite 5-diagonal system A x = rhs,
// the matrix shape of the paper's Section 4.3 scalability study. The
// diagonals sit at offsets {-w, -1, 0, +1, +w}, with constant
// coefficients (main diagonal 4, off-diagonals -0.5), so the matrix is
// strictly diagonally dominant and symmetric.
type cgProblem struct {
	N   int
	W   int // outer-diagonal offset
	RHS []float64
}

// newCGProblem builds a deterministic problem of size n with outer
// diagonal offset w.
func newCGProblem(n, w int) *cgProblem {
	if w < 2 || w >= n {
		panic(fmt.Sprintf("kernels: CG offset %d out of range for n=%d", w, n))
	}
	p := &cgProblem{N: n, W: w, RHS: make([]float64, n)}
	r := sim.NewRand(4)
	for i := range p.RHS {
		p.RHS[i] = r.Float64()
	}
	return p
}

const (
	cgDiag = 4.0
	cgOff  = -0.5
)

// Apply computes y = A x serially.
func (p *cgProblem) Apply(x, y []float64) {
	n, w := p.N, p.W
	for i := 0; i < n; i++ {
		v := cgDiag * x[i]
		if i >= 1 {
			v += cgOff * x[i-1]
		}
		if i+1 < n {
			v += cgOff * x[i+1]
		}
		if i >= w {
			v += cgOff * x[i-w]
		}
		if i+w < n {
			v += cgOff * x[i+w]
		}
		y[i] = v
	}
}

// Residual returns ||rhs - A x||_2.
func (p *cgProblem) Residual(x []float64) float64 {
	y := make([]float64, p.N)
	p.Apply(x, y)
	s := 0.0
	for i := range y {
		d := p.RHS[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// cgResult extends job.Result with solver-level outcomes.
type cgResult struct {
	job.Result
	// Iterations actually run.
	Iterations int
	// FinalResidual is ||rhs - A x|| after the run.
	FinalResidual float64
	// X is the computed solution.
	X []float64
}

// checkCGSize rejects a problem size the CG kernel cannot partition
// over nces CEs: every CE takes whole 32-word strips. A size that passes
// is at least 32, so both outer-diagonal offsets the cg workload picks
// fit inside the system.
func checkCGSize(n, nces int) error {
	if n%(nces*StripLen) != 0 {
		return fmt.Errorf("kernels: CG n=%d not a multiple of %d", n, nces*StripLen)
	}
	return nil
}

// runCG runs Params.Iterations iterations (default 5) of the
// conjugate-gradient method on m, with all vectors in global memory,
// compiler-style 32-word prefetches (when Params.Prefetch), vector
// segments statically partitioned over the CEs, and multiprocessor
// barriers between the phases of each iteration. It is the computation
// behind Table 2's CG row and the Section 4.3 scalability study.
func runCG(m *core.Machine, rt *cedarfort.Runtime, prob *cgProblem, p workload.Params) (cgResult, error) {
	iters := p.Iterations
	if iters == 0 {
		iters = 5
	}
	usePrefetch, probe := p.Prefetch, p.Probe
	n := prob.N
	nces := m.NumCEs()
	if err := checkCGSize(n, nces); err != nil {
		return cgResult{}, err
	}

	// Functional state.
	x := make([]float64, n)
	r := make([]float64, n)
	q := make([]float64, n)
	pv := make([]float64, n)
	copy(r, prob.RHS) // x0 = 0 so r = rhs
	copy(pv, prob.RHS)
	partialsPQ := make([]float64, nces)
	partialsRR := make([]float64, nces)
	rho0 := 0.0
	for _, v := range r {
		rho0 += v * v
	}
	// Scalar recurrence state is replicated per CE: every processor
	// combines the same partials after each barrier and computes
	// identical alpha/beta locally, so no cross-CE write ordering on
	// scalars is needed (this is also how the real code behaves — the
	// reduction result is read by everyone).
	type cgScalars struct{ alpha, beta, rho, rhoNew float64 }
	scal := make([]cgScalars, nces)
	for i := range scal {
		scal[i].rho = rho0
	}

	// Timing address layout.
	m.AllocGlobalReset()
	xB := m.AllocGlobal(uint64(n))
	rB := m.AllocGlobal(uint64(n))
	qB := m.AllocGlobal(uint64(n))
	pB := m.AllocGlobal(uint64(n))
	partPQB := m.AllocGlobal(uint64(nces))
	partRRB := m.AllocGlobal(uint64(nces))
	bar := rt.NewBarrier(nces)

	var pr *perfmon.PrefetchProbe
	if probe && usePrefetch {
		pr = perfmon.AttachPrefetch(m.CE(0).PFU())
	}

	// Solver-phase marks for the per-phase CPI stacks: CE 0's generator
	// is pulled exactly when its instruction stream crosses a
	// barrier-separated phase boundary (the queue drains only after its
	// barrier episode retires), so marking from there stamps the
	// boundaries without touching simulated behaviour. All CEs cross
	// together — the barriers see to that — so one marker CE suffices.
	curPhase := ""
	markPhase := func(ceID int, name string) {
		if ceID != 0 || rt.Phases == nil {
			return
		}
		if curPhase != "" {
			rt.Phases.PhaseEnd(curPhase)
		}
		if name != "" {
			rt.Phases.PhaseStart(name)
		}
		curPhase = name
	}

	// Each CE's three phases, built once: their operations read the
	// solver state through slices and pointers, and a CE never modifies
	// an operation, so every iteration re-emits the same lists.
	seg := n / nces
	phaseNames := [3]string{"matvec", "update", "direction"}
	for id := 0; id < nces; id++ {
		ceID := id
		lo, hi := ceID*seg, (ceID+1)*seg
		sc := &scal[ceID]
		phases := [3][]*isa.Op{
			cgMatvecOps(prob, usePrefetch, lo, hi, pB, qB, partPQB, ceID, pv, q, partialsPQ),
			cgUpdateOps(usePrefetch, lo, hi, nces, xB, rB, qB, pB, partPQB, partRRB, ceID,
				x, r, q, pv, partialsPQ, partialsRR, &sc.alpha, &sc.rho, &sc.rhoNew),
			cgDirectionOps(usePrefetch, lo, hi, nces, rB, pB, partRRB, ceID,
				r, pv, partialsRR, &sc.beta, &sc.rho, &sc.rhoNew),
		}
		if testHookOps != nil {
			testHookOps(phases[:])
		}
		iter, phase := 0, 0
		g := isa.NewGen(func(g *isa.Gen) bool {
			if iter >= iters {
				markPhase(ceID, "")
				return false
			}
			markPhase(ceID, phaseNames[phase])
			g.Emit(phases[phase]...)
			bar.Emit(g)
			if phase = (phase + 1) % 3; phase == 0 {
				iter++
			}
			return true
		})
		m.CE(ceID).SetProgram(g)
	}

	start := m.Eng.Now()
	end, err := m.RunUntilIdle(sim.Cycle(int64(iters)*int64(n)*500/int64(nces)) + 10_000_000)
	if err != nil {
		return cgResult{}, err
	}
	check := 0.0
	for _, v := range x {
		check += v
	}
	name := "CG GM/no-pref"
	if usePrefetch {
		name = "CG GM/pref"
	}
	res := cgResult{
		Result:        finish(name, m, start, end, check, pr),
		Iterations:    iters,
		FinalResidual: prob.Residual(x),
		X:             x,
	}
	return res, nil
}

// testHookOps, when set by a test, receives the operation lists a
// kernel re-emits, before the run that emits them starts.
var testHookOps func(lists [][]*isa.Op)

// vloadOps appends a strip load (with its prefetch when enabled).
func vloadOps(ops []*isa.Op, usePrefetch bool, base uint64, lo, flops int) []*isa.Op {
	addr := isa.Addr{Space: isa.Global, Word: base + uint64(lo)}
	if usePrefetch {
		ops = append(ops, isa.NewPrefetch(addr, StripLen, 1))
	}
	return append(ops, isa.NewVectorLoad(addr, StripLen, 1, flops, usePrefetch))
}

// cgMatvecOps: q = A p over [lo,hi), partial = p . q, store partial.
// Nine flops per element for the 5-diagonal product plus two for the dot
// product, split across the streams' chained operations and one RR op.
func cgMatvecOps(prob *cgProblem, usePrefetch bool, lo, hi int,
	pB, qB, partB uint64, ceID int, pv, q []float64, partials []float64) []*isa.Op {
	var ops []*isa.Op
	for s := lo; s < hi; s += StripLen {
		// Five shifted streams of p; chained flops 2+2+2+2 on four of
		// them, one RR op for the remaining multiply and the dot terms.
		ops = vloadOps(ops, usePrefetch, pB, s, 2)
		ops = vloadOps(ops, usePrefetch, pB, max(0, s-1), 2)
		ops = vloadOps(ops, usePrefetch, pB, min(prob.N-StripLen, s+1), 2)
		ops = vloadOps(ops, usePrefetch, pB, max(0, s-prob.W), 2)
		ops = vloadOps(ops, usePrefetch, pB, min(prob.N-StripLen, s+prob.W), 2)
		ops = append(ops, isa.NewCompute(ce.VectorStartup+StripLen)) // RR: remaining mul + dot accumulation
		st := isa.NewVectorStore(isa.Addr{Space: isa.Global, Word: qB + uint64(s)}, StripLen, 1, 1)
		first := s
		st.Do = func() {
			n, w := prob.N, prob.W
			for k := 0; k < StripLen; k++ {
				i := first + k
				v := cgDiag * pv[i]
				if i >= 1 {
					v += cgOff * pv[i-1]
				}
				if i+1 < n {
					v += cgOff * pv[i+1]
				}
				if i >= w {
					v += cgOff * pv[i-w]
				}
				if i+w < n {
					v += cgOff * pv[i+w]
				}
				q[i] = v
			}
		}
		ops = append(ops, st)
	}
	// Partial dot product p.q over the segment; posted scalar store.
	st := isa.NewScalarStore(isa.Addr{Space: isa.Global, Word: partB + uint64(ceID)})
	st.Do = func() {
		sum := 0.0
		for i := lo; i < hi; i++ {
			sum += pv[i] * q[i]
		}
		partials[ceID] = sum
	}
	return append(ops, st)
}

// cgUpdateOps: read partials, alpha = rho / (p.q); x += alpha p;
// r -= alpha q; partial = r.r; store partial.
func cgUpdateOps(usePrefetch bool, lo, hi, nces int,
	xB, rB, qB, pB, partPQB, partRRB uint64, ceID int,
	x, r, q, pv []float64, partialsPQ, partialsRR []float64, alpha, rho, rhoNew *float64) []*isa.Op {
	// Read every CE's partial (a short global vector load) and combine.
	rd := isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: partPQB}, nces, 1, 1, false)
	rd.Do = func() {
		pq := 0.0
		for _, v := range partialsPQ {
			pq += v
		}
		*alpha = *rho / pq
	}
	ops := []*isa.Op{rd}
	for s := lo; s < hi; s += StripLen {
		ops = vloadOps(ops, usePrefetch, pB, s, 2) // x += alpha p
		ops = vloadOps(ops, usePrefetch, qB, s, 2) // r -= alpha q
		ops = vloadOps(ops, usePrefetch, xB, s, 0) // x read-modify-write
		ops = vloadOps(ops, usePrefetch, rB, s, 2) // r RMW + r.r accumulation
		first := s
		stx := isa.NewVectorStore(isa.Addr{Space: isa.Global, Word: xB + uint64(s)}, StripLen, 1, 0)
		stx.Do = func() {
			for k := 0; k < StripLen; k++ {
				i := first + k
				x[i] += *alpha * pv[i]
				r[i] -= *alpha * q[i]
			}
		}
		ops = append(ops, stx,
			isa.NewVectorStore(isa.Addr{Space: isa.Global, Word: rB + uint64(s)}, StripLen, 1, 0))
	}
	st := isa.NewScalarStore(isa.Addr{Space: isa.Global, Word: partRRB + uint64(ceID)})
	st.Do = func() {
		sum := 0.0
		for i := lo; i < hi; i++ {
			sum += r[i] * r[i]
		}
		partialsRR[ceID] = sum
	}
	return append(ops, st)
}

// cgDirectionOps: read partials, beta = rho' / rho, rho = rho',
// p = r + beta p.
func cgDirectionOps(usePrefetch bool, lo, hi, nces int,
	rB, pB, partB uint64, ceID int,
	r, pv []float64, partials []float64, beta, rho, rhoNew *float64) []*isa.Op {
	rd := isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: partB}, nces, 1, 1, false)
	rd.Do = func() {
		sum := 0.0
		for _, v := range partials {
			sum += v
		}
		*rhoNew = sum
		*beta = *rhoNew / *rho
		*rho = *rhoNew // this CE's replicated recurrence state
	}
	ops := []*isa.Op{rd}
	for s := lo; s < hi; s += StripLen {
		ops = vloadOps(ops, usePrefetch, rB, s, 1)
		ops = vloadOps(ops, usePrefetch, pB, s, 1)
		first := s
		st := isa.NewVectorStore(isa.Addr{Space: isa.Global, Word: pB + uint64(s)}, StripLen, 1, 0)
		st.Do = func() {
			for k := 0; k < StripLen; k++ {
				i := first + k
				pv[i] = r[i] + *beta*pv[i]
			}
		}
		ops = append(ops, st)
	}
	return ops
}
