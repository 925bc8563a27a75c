package kernels

import (
	"math"
	"testing"

	"repro/internal/cedarfort"
	"repro/internal/core"
	"repro/internal/workload"
)

func testMachine(clusters int) *core.Machine {
	cfg := core.ConfigClusters(clusters)
	cfg.Global.Words = 1 << 20
	return core.MustNew(cfg)
}

func TestModeString(t *testing.T) {
	if workload.GMNoPrefetch.String() != "GM/no-pref" || workload.GMPrefetch.String() != "GM/pref" || workload.GMCache.String() != "GM/cache" {
		t.Fatal("mode names drifted from Table 1")
	}
	if workload.Mode(9).String() != "unknown" {
		t.Fatal("unknown mode")
	}
}

func TestRank64Numerics(t *testing.T) {
	for _, mode := range []workload.Mode{workload.GMNoPrefetch, workload.GMPrefetch, workload.GMCache} {
		in := newRank64Input(64)
		want := referenceRank64(in)
		m := testMachine(1)
		res, err := runRank64(m, in, workload.Params{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for i := range want {
			if math.Abs(in.C[i]-want[i]) > 1e-9 {
				t.Fatalf("%v: C[%d] = %g, want %g", mode, i, in.C[i], want[i])
			}
		}
		if res.Flops < int64(2*64*64*64) {
			t.Fatalf("%v: counted %d flops, want >= %d", mode, res.Flops, 2*64*64*64)
		}
	}
}

// TestRank64ModeOrdering reproduces Table 1's column ordering on one
// cluster: GM/cache > GM/pref > GM/no-pref, with prefetch a ~3-4x
// improvement and no-pref near 14.5 MFLOPS on 8 CEs.
func TestRank64ModeOrdering(t *testing.T) {
	rates := map[workload.Mode]float64{}
	for _, mode := range []workload.Mode{workload.GMNoPrefetch, workload.GMPrefetch, workload.GMCache} {
		in := newRank64Input(128)
		m := testMachine(1)
		res, err := runRank64(m, in, workload.Params{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		rates[mode] = res.MFLOPS
	}
	if !(rates[workload.GMCache] > rates[workload.GMPrefetch] && rates[workload.GMPrefetch] > rates[workload.GMNoPrefetch]) {
		t.Fatalf("mode ordering violated: %v", rates)
	}
	if rates[workload.GMNoPrefetch] < 10 || rates[workload.GMNoPrefetch] > 20 {
		t.Fatalf("GM/no-pref on one cluster = %.1f MFLOPS, want ~14.5 (Table 1)", rates[workload.GMNoPrefetch])
	}
	imp := rates[workload.GMPrefetch] / rates[workload.GMNoPrefetch]
	if imp < 2.5 || imp > 6 {
		t.Fatalf("prefetch improvement %.1fx, paper shows ~3.5x", imp)
	}
}

func TestRank64Probe(t *testing.T) {
	in := newRank64Input(64)
	m := testMachine(1)
	res, err := runRank64(m, in, workload.Params{Mode: workload.GMPrefetch, Probe: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyCycles == nil || res.InterarrivalCycles == nil {
		t.Fatal("probe produced no measurements")
	}
	if *res.LatencyCycles < 8 {
		t.Fatalf("latency %.1f below the 8-cycle minimum", *res.LatencyCycles)
	}
	if *res.InterarrivalCycles < 1 {
		t.Fatalf("interarrival %.2f below the 1-cycle minimum", *res.InterarrivalCycles)
	}
}

func TestRank64SizeValidation(t *testing.T) {
	m := testMachine(1)
	in := newRank64Input(64)
	in.N = 4 // lie about the size: fewer columns than CEs
	if _, err := runRank64(m, in, workload.Params{Mode: workload.GMPrefetch}); err == nil {
		t.Fatal("accepted n smaller than the CE count")
	}
}

// TestRank64UnevenPartition: 3 clusters (24 CEs) with n=64 exercises the
// remainder-spreading column partition.
func TestRank64UnevenPartition(t *testing.T) {
	in := newRank64Input(64)
	want := referenceRank64(in)
	m := testMachine(3)
	if _, err := runRank64(m, in, workload.Params{Mode: workload.GMPrefetch}); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(in.C[i]-want[i]) > 1e-9 {
			t.Fatalf("C[%d] = %g, want %g", i, in.C[i], want[i])
		}
	}
}

func TestVectorLoadNumericsAndSpeedup(t *testing.T) {
	n := 8 * StripLen * 8
	m1 := testMachine(1)
	slow, err := runVectorLoad(m1, workload.Params{Size: n})
	if err != nil {
		t.Fatal(err)
	}
	m2 := testMachine(1)
	fast, err := runVectorLoad(m2, workload.Params{Size: n, Prefetch: true, Probe: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slow.Check-fast.Check) > 1e-9 {
		t.Fatalf("checksums differ between variants: %g vs %g", slow.Check, fast.Check)
	}
	if fast.Cycles >= slow.Cycles {
		t.Fatalf("prefetch VL (%d cycles) not faster than no-pref (%d)", fast.Cycles, slow.Cycles)
	}
	if fast.LatencyCycles == nil {
		t.Fatal("VL probe missing")
	}
}

func TestTriMatVecNumerics(t *testing.T) {
	n := 8 * StripLen * 4
	m := testMachine(1)
	res, err := runTriMatVec(m, workload.Params{Size: n, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	want := referenceTriMatVec(n)
	if math.Abs(res.Check-want) > 1e-9*math.Abs(want) {
		t.Fatalf("TM check = %g, want %g", res.Check, want)
	}
	if res.Flops < int64(5*n) {
		t.Fatalf("TM counted %d flops for n=%d", res.Flops, n)
	}
}

func TestCGConverges(t *testing.T) {
	n := 8 * StripLen * 4 // 1024
	p := newCGProblem(n, 64)
	m := testMachine(1)
	rt := cedarfort.New(m, cedarfort.DefaultConfig())
	res, err := runCG(m, rt, p, workload.Params{Iterations: 20, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	r0 := 0.0
	for _, v := range p.RHS {
		r0 += v * v
	}
	r0 = math.Sqrt(r0)
	if res.FinalResidual > r0*1e-6 {
		t.Fatalf("CG residual %g after 20 iterations (initial %g): not converging", res.FinalResidual, r0)
	}
	// Verify against a serial CG reference.
	xRef := serialCG(p, 20)
	for i := range xRef {
		if math.Abs(xRef[i]-res.X[i]) > 1e-8 {
			t.Fatalf("x[%d] = %g, serial reference %g", i, res.X[i], xRef[i])
		}
	}
}

// serialCG is a plain single-thread conjugate gradient for verification.
func serialCG(p *cgProblem, iters int) []float64 {
	n := p.N
	x := make([]float64, n)
	r := make([]float64, n)
	pv := make([]float64, n)
	q := make([]float64, n)
	copy(r, p.RHS)
	copy(pv, p.RHS)
	rho := 0.0
	for _, v := range r {
		rho += v * v
	}
	for it := 0; it < iters; it++ {
		p.Apply(pv, q)
		pq := 0.0
		for i := range q {
			pq += pv[i] * q[i]
		}
		alpha := rho / pq
		for i := range x {
			x[i] += alpha * pv[i]
			r[i] -= alpha * q[i]
		}
		rhoNew := 0.0
		for _, v := range r {
			rhoNew += v * v
		}
		beta := rhoNew / rho
		rho = rhoNew
		for i := range pv {
			pv[i] = r[i] + beta*pv[i]
		}
	}
	return x
}

// TestCGPrefetchHelps: Table 2's CG row shows a ~2.4x prefetch speedup on
// 8 CEs; check direction and rough magnitude.
func TestCGPrefetchHelps(t *testing.T) {
	n := 8 * StripLen * 4
	run := func(usePF bool) cgResult {
		p := newCGProblem(n, 64)
		m := testMachine(1)
		rt := cedarfort.New(m, cedarfort.DefaultConfig())
		res, err := runCG(m, rt, p, workload.Params{Iterations: 4, Prefetch: usePF})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	slow, fast := run(false), run(true)
	sp := float64(slow.Cycles) / float64(fast.Cycles)
	if sp < 1.3 {
		t.Fatalf("CG prefetch speedup = %.2f, want > 1.3", sp)
	}
	if math.Abs(slow.Check-fast.Check) > 1e-9 {
		t.Fatal("CG result depends on prefetching")
	}
}

func TestCGProblemValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad CG offset accepted")
		}
	}()
	newCGProblem(100, 1)
}
