package kernels

import (
	"fmt"

	"repro/internal/ce"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/perfmon"
	"repro/internal/sim"
	"repro/internal/workload"
)

// VectorLoad runs the VL kernel: every CE streams its contiguous segment
// of an n-word global vector through strip-mined vector operations (one
// chained flop per element — a vector scale), with compiler-style
// 32-word prefetches inserted before each vector operation when prefetch
// is enabled. The result vector is y[i] = 2*x[i], verified via Check
// (the sum of y).
//
// Params used: Size (vector length; default 4 strips per CE), Prefetch,
// Probe.
func RunVectorLoad(m *core.Machine, p workload.Params) (Result, error) {
	nces := m.NumCEs()
	n := p.Size
	if n == 0 {
		n = nces * StripLen * 4
	}
	usePrefetch, probe := p.Prefetch, p.Probe
	if n%(nces*StripLen) != 0 {
		return Result{}, fmt.Errorf("kernels: VL n=%d not a multiple of %d", n, nces*StripLen)
	}
	if err := m.FitGlobal("kernels: VL", uint64(n), 2, 0); err != nil {
		return Result{}, err
	}
	x := make([]float64, n)
	y := make([]float64, n)
	r := sim.NewRand(2)
	for i := range x {
		x[i] = r.Float64()
	}
	m.AllocGlobalReset()
	xBase := m.AllocGlobal(uint64(n))
	yBase := m.AllocGlobal(uint64(n))

	var pr *perfmon.PrefetchProbe
	if probe && usePrefetch {
		pr = perfmon.AttachPrefetch(m.CE(0).PFU())
	}

	seg := n / nces
	for id := 0; id < nces; id++ {
		base := id * seg
		prog := isa.NewSeq()
		for off := 0; off < seg; off += StripLen {
			lo := base + off
			addr := isa.Addr{Space: isa.Global, Word: xBase + uint64(lo)}
			if usePrefetch {
				prog.Add(isa.NewPrefetch(addr, StripLen, 1))
			}
			prog.Add(isa.NewVectorLoad(addr, StripLen, 1, 1, usePrefetch))
			st := isa.NewVectorStore(isa.Addr{Space: isa.Global, Word: yBase + uint64(lo)}, StripLen, 1, 0)
			first := lo
			st.Do = func() {
				for k := 0; k < StripLen; k++ {
					y[first+k] = 2 * x[first+k]
				}
			}
			prog.Add(st)
		}
		m.CE(id).SetProgram(prog)
	}
	start := m.Eng.Now()
	end, err := m.RunUntilIdle(sim.Cycle(n) * 100)
	if err != nil {
		return Result{}, err
	}
	check := 0.0
	for _, v := range y {
		check += v
	}
	name := "VL GM/no-pref"
	if usePrefetch {
		name = "VL GM/pref"
	}
	return finish(name, m, start, end, check, pr), nil
}

// TriMatVec runs the TM kernel: y = T x for a tridiagonal matrix T with
// diagonals (a, b, c), strip-mined with compiler-generated 32-word
// prefetches. Register-register vector operations carry part of the
// arithmetic, which reduces the demand on the memory system relative to
// RK — the property the paper uses to explain TM's milder degradation in
// Table 2. Five flops per element (three multiplies, two adds).
//
// Params used: Size (system order; default 2 strips per CE), Prefetch,
// Probe.
func RunTriMatVec(m *core.Machine, p workload.Params) (Result, error) {
	nces := m.NumCEs()
	n := p.Size
	if n == 0 {
		n = nces * StripLen * 2
	}
	usePrefetch, probe := p.Prefetch, p.Probe
	if n%(nces*StripLen) != 0 {
		return Result{}, fmt.Errorf("kernels: TM n=%d not a multiple of %d", n, nces*StripLen)
	}
	if err := m.FitGlobal("kernels: TM", uint64(n), 5, 0); err != nil {
		return Result{}, err
	}
	a := make([]float64, n) // subdiagonal (a[0] unused)
	b := make([]float64, n) // main diagonal
	c := make([]float64, n) // superdiagonal (c[n-1] unused)
	x := make([]float64, n)
	y := make([]float64, n)
	r := sim.NewRand(3)
	for i := range x {
		a[i] = r.Float64()
		b[i] = 2 + r.Float64()
		c[i] = r.Float64()
		x[i] = r.Float64() - 0.5
	}
	m.AllocGlobalReset()
	aBase := m.AllocGlobal(uint64(n))
	bBase := m.AllocGlobal(uint64(n))
	cBase := m.AllocGlobal(uint64(n))
	xBase := m.AllocGlobal(uint64(n))
	yBase := m.AllocGlobal(uint64(n))

	var pr *perfmon.PrefetchProbe
	if probe && usePrefetch {
		pr = perfmon.AttachPrefetch(m.CE(0).PFU())
	}

	// rrCost is the register-register vector operation cost for one
	// strip: startup plus one element per cycle.
	rrCost := ce.VectorStartup + StripLen

	seg := n / nces
	for id := 0; id < nces; id++ {
		base := id * seg
		prog := isa.NewSeq()
		for off := 0; off < seg; off += StripLen {
			lo := base + off
			load := func(base uint64, flops int) {
				addr := isa.Addr{Space: isa.Global, Word: base + uint64(lo)}
				if usePrefetch {
					prog.Add(isa.NewPrefetch(addr, StripLen, 1))
				}
				prog.Add(isa.NewVectorLoad(addr, StripLen, 1, flops, usePrefetch))
			}
			// Four streams; chained arithmetic on two of them, the rest
			// in a register-register operation.
			load(xBase, 0)
			load(aBase, 2) // a[i]*x[i-1] + accumulate
			load(bBase, 2) // b[i]*x[i] + accumulate
			load(cBase, 0) // c stream; its multiply-add runs RR below
			rr := isa.NewCompute(rrCost)
			first := lo
			prog.Add(rr)
			st := isa.NewVectorStore(isa.Addr{Space: isa.Global, Word: yBase + uint64(lo)}, StripLen, 1, 1)
			st.Do = func() {
				for k := 0; k < StripLen; k++ {
					i := first + k
					v := b[i] * x[i]
					if i > 0 {
						v += a[i] * x[i-1]
					}
					if i < n-1 {
						v += c[i] * x[i+1]
					}
					y[i] = v
				}
			}
			prog.Add(st)
		}
		m.CE(id).SetProgram(prog)
	}
	start := m.Eng.Now()
	end, err := m.RunUntilIdle(sim.Cycle(n) * 200)
	if err != nil {
		return Result{}, err
	}
	check := 0.0
	for _, v := range y {
		check += v
	}
	name := "TM GM/no-pref"
	if usePrefetch {
		name = "TM GM/pref"
	}
	return finish(name, m, start, end, check, pr), nil
}

// ReferenceTriMatVec computes y = T x serially from the same seed,
// for verification of TriMatVec's Check value.
func ReferenceTriMatVec(n int) float64 {
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	x := make([]float64, n)
	r := sim.NewRand(3)
	for i := range x {
		a[i] = r.Float64()
		b[i] = 2 + r.Float64()
		c[i] = r.Float64()
		x[i] = r.Float64() - 0.5
	}
	check := 0.0
	for i := 0; i < n; i++ {
		v := b[i] * x[i]
		if i > 0 {
			v += a[i] * x[i-1]
		}
		if i < n-1 {
			v += c[i] * x[i+1]
		}
		check += v
	}
	return check
}
