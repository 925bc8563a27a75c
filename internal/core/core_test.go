package core

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"

	"repro/internal/ce"
	"repro/internal/gmem"
	"repro/internal/isa"
	"repro/internal/network"
	"repro/internal/sim"
)

// testConfig returns a fast-to-simulate machine: full topology, small
// global memory.
func testConfig(clusters int) Config {
	cfg := ConfigClusters(clusters)
	cfg.Global.Words = 1 << 16
	return cfg
}

func TestMachineTopology(t *testing.T) {
	for clusters := 1; clusters <= 4; clusters++ {
		m := MustNew(testConfig(clusters))
		if m.NumCEs() != clusters*8 {
			t.Fatalf("%d clusters: %d CEs, want %d", clusters, m.NumCEs(), clusters*8)
		}
		if m.Fwd.Ports() != 64 || m.Rev.Ports() != 64 {
			t.Fatalf("network ports %d/%d, want 64 (two stages of 8x8 crossbars)",
				m.Fwd.Ports(), m.Rev.Ports())
		}
		if m.Fwd.Stages() != 2 {
			t.Fatalf("forward network has %d stages, want 2", m.Fwd.Stages())
		}
		if m.Global.Modules() != 32 {
			t.Fatalf("%d memory modules, want 32", m.Global.Modules())
		}
		if len(m.Clusters) != clusters {
			t.Fatalf("cluster count %d", len(m.Clusters))
		}
		for i, cl := range m.Clusters {
			if len(cl.CEs) != 8 {
				t.Fatalf("cluster %d has %d CEs", i, len(cl.CEs))
			}
		}
		if !m.Idle() {
			t.Fatal("fresh machine not idle")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := testConfig(0)
	if _, err := New(bad); err == nil {
		t.Fatal("accepted 0 clusters")
	}
	bad = testConfig(1)
	bad.Cluster.CEs = 0
	if _, err := New(bad); err == nil {
		t.Fatal("accepted 0 CEs")
	}
}

func TestComputeOpTiming(t *testing.T) {
	m := MustNew(testConfig(1))
	var doneAt sim.Cycle = -1
	op := isa.NewCompute(100)
	op.OnDone = func(int64, bool) { doneAt = m.Eng.Now() }
	m.Dispatch(0, isa.NewSeq(op))
	if _, err := m.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	if doneAt != 100 {
		t.Fatalf("Compute(100) dispatched at 0 completed at %d, want 100", doneAt)
	}
}

// TestScalarGlobalLoadLatency pins the paper's 13-cycle effective global
// latency: 3 forward transit + 2 service + 3 reverse + 5 CE transfer.
func TestScalarGlobalLoadLatency(t *testing.T) {
	m := MustNew(testConfig(1))
	var doneAt sim.Cycle = -1
	op := isa.NewScalarLoad(isa.Addr{Space: isa.Global, Word: 5})
	op.OnDone = func(int64, bool) { doneAt = m.Eng.Now() }
	m.Dispatch(0, isa.NewSeq(op))
	if _, err := m.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	if doneAt != 13 {
		t.Fatalf("scalar global load completed at %d, want 13", doneAt)
	}
}

func TestScalarClusterAccess(t *testing.T) {
	m := MustNew(testConfig(1))
	var first, second sim.Cycle
	op1 := isa.NewScalarLoad(isa.Addr{Space: isa.Cluster, Word: 10})
	op1.OnDone = func(int64, bool) { first = m.Eng.Now() }
	op2 := isa.NewScalarLoad(isa.Addr{Space: isa.Cluster, Word: 11})
	op2.OnDone = func(int64, bool) { second = m.Eng.Now() }
	m.Dispatch(0, isa.NewSeq(op1, op2))
	if _, err := m.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	if first < 7 || first > 10 {
		t.Fatalf("cold cluster load at %d, want ~8 (cache fill)", first)
	}
	if second-first > 3 {
		t.Fatalf("warm cluster load took %d more cycles, want hit (<=3)", second-first)
	}
}

func TestScalarStoreIsPosted(t *testing.T) {
	m := MustNew(testConfig(1))
	var doneAt sim.Cycle = -1
	op := isa.NewScalarStore(isa.Addr{Space: isa.Global, Word: 9})
	op.OnDone = func(int64, bool) { doneAt = m.Eng.Now() }
	m.Dispatch(0, isa.NewSeq(op))
	if _, err := m.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	if doneAt > 3 {
		t.Fatalf("posted store occupied the CE until %d", doneAt)
	}
}

// TestVectorGlobalNoPrefetchRate: with 2 outstanding requests and 13-cycle
// latency a global vector load sustains 2 words per 13 cycles — at 2
// chained flops per word this is the 1.8 MFLOPS/CE behind Table 1's
// GM/no-pref row (14.5 MFLOPS on 8 CEs).
func TestVectorGlobalNoPrefetchRate(t *testing.T) {
	m := MustNew(testConfig(1))
	const n = 128
	var doneAt sim.Cycle
	op := isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: 0}, n, 1, 2, false)
	op.OnDone = func(int64, bool) { doneAt = m.Eng.Now() }
	m.Dispatch(0, isa.NewSeq(op))
	if _, err := m.RunUntilIdle(10000); err != nil {
		t.Fatal(err)
	}
	mflops := MFLOPS(m.CE(0).Flops, doneAt)
	if mflops < 1.6 || mflops > 2.0 {
		t.Fatalf("GM/no-pref single CE = %.2f MFLOPS, want ~1.8", mflops)
	}
}

// TestVectorPrefetchSpeedup: the same access with the PFU masks the
// latency; the single-CE speedup should be >= 3x (Table 1 shows 3.5 on a
// cluster).
func TestVectorPrefetchSpeedup(t *testing.T) {
	run := func(usePF bool) sim.Cycle {
		m := MustNew(testConfig(1))
		const n = 256
		var doneAt sim.Cycle
		seq := isa.NewSeq()
		if usePF {
			seq.Add(isa.NewPrefetch(isa.Addr{Space: isa.Global, Word: 0}, n, 1))
		}
		op := isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: 0}, n, 1, 2, usePF)
		op.OnDone = func(int64, bool) { doneAt = m.Eng.Now() }
		seq.Add(op)
		m.Dispatch(0, seq)
		if _, err := m.RunUntilIdle(20000); err != nil {
			t.Fatal(err)
		}
		return doneAt
	}
	noPF := run(false)
	withPF := run(true)
	speedup := float64(noPF) / float64(withPF)
	if speedup < 3.0 {
		t.Fatalf("prefetch speedup = %.2f (no-pref %d, pref %d cycles), want >= 3",
			speedup, noPF, withPF)
	}
}

// TestVectorClusterWarmRate: a warm cluster-cache stream approaches one
// word per cycle — 2 flops/word gives ~11.8 MFLOPS, the CE peak.
func TestVectorClusterWarmRate(t *testing.T) {
	m := MustNew(testConfig(1))
	const n = 256
	var start, end sim.Cycle
	warm := isa.NewVectorLoad(isa.Addr{Space: isa.Cluster, Word: 0}, n, 1, 0, false)
	warm.OnDone = func(int64, bool) { start = m.Eng.Now() }
	hot := isa.NewVectorLoad(isa.Addr{Space: isa.Cluster, Word: 0}, n, 1, 2, false)
	hot.OnDone = func(int64, bool) { end = m.Eng.Now() }
	m.Dispatch(0, isa.NewSeq(warm, hot))
	if _, err := m.RunUntilIdle(20000); err != nil {
		t.Fatal(err)
	}
	cycles := end - start
	rate := float64(n) / float64(cycles)
	if rate < 0.8 {
		t.Fatalf("warm cluster stream = %.2f words/cycle over %d cycles, want ~1", rate, cycles)
	}
	mflops := MFLOPS(2*n, cycles)
	if mflops < 9.0 || mflops > 12.0 {
		t.Fatalf("warm cluster stream = %.1f MFLOPS, want ~10-11.8", mflops)
	}
}

func TestVectorStorePosted(t *testing.T) {
	m := MustNew(testConfig(1))
	const n = 64
	var doneAt sim.Cycle
	op := isa.NewVectorStore(isa.Addr{Space: isa.Global, Word: 0}, n, 1, 0)
	op.OnDone = func(int64, bool) { doneAt = m.Eng.Now() }
	m.Dispatch(0, isa.NewSeq(op))
	if _, err := m.RunUntilIdle(10000); err != nil {
		t.Fatal(err)
	}
	// Issue-limited, not latency-limited: ~2 words/packet through one
	// port at 1 word/cycle, so ~2n cycles, far below n*13.
	if doneAt > sim.Cycle(4*n) {
		t.Fatalf("posted vector store took %d cycles for %d words", doneAt, n)
	}
}

func TestDoAndOnDoneRun(t *testing.T) {
	m := MustNew(testConfig(1))
	data := []float64{1, 2, 3}
	sum := 0.0
	op := isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: 0}, 3, 1, 1, false)
	op.Do = func() {
		for _, v := range data {
			sum += v
		}
	}
	m.Dispatch(0, isa.NewSeq(op))
	if _, err := m.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	if sum != 6 {
		t.Fatalf("Do payload did not run: sum = %g", sum)
	}
}

// TestSyncSerialization: 8 CEs fetch-and-add one global word; all get
// distinct iteration numbers and the counter ends at 8.
func TestSyncSerialization(t *testing.T) {
	m := MustNew(testConfig(1))
	addr := m.AllocGlobal(1)
	got := map[int64]bool{}
	for id := 0; id < 8; id++ {
		op := isa.NewSync(addr, network.FetchAndAdd(1))
		op.OnDone = func(v int64, ok bool) {
			if !ok {
				t.Error("fetch-and-add failed")
			}
			if got[v] {
				t.Errorf("value %d claimed twice", v)
			}
			got[v] = true
		}
		m.Dispatch(id, isa.NewSeq(op))
	}
	if _, err := m.RunUntilIdle(10000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("claimed %d distinct values, want 8", len(got))
	}
	if m.Global.LoadInt(addr) != 8 {
		t.Fatalf("counter = %d, want 8", m.Global.LoadInt(addr))
	}
}

func TestSpreadOpGangStartsCluster(t *testing.T) {
	m := MustNew(testConfig(1))
	cl := m.Clusters[0]
	ran := make([]bool, 8)
	progs := make([]isa.Program, 8)
	for i := range progs {
		op := isa.NewCompute(5)
		op.Do = func() { ran[i] = true }
		progs[i] = isa.NewSeq(op)
	}
	m.Dispatch(0, isa.NewSeq(cl.SpreadOp(progs)))
	if _, err := m.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("CE %d did not run its spread program", i)
		}
	}
}

func TestSelfScheduleCoversIterations(t *testing.T) {
	m := MustNew(testConfig(1))
	cl := m.Clusters[0]
	const n = 100
	seen := make([]int, n)
	progs := cl.SelfSchedule(n, func(iter int, g *isa.Gen) {
		op := isa.NewCompute(3)
		op.Do = func() { seen[iter]++ }
		g.Emit(op)
	})
	m.Dispatch(0, isa.NewSeq(cl.SpreadOp(progs)))
	if _, err := m.RunUntilIdle(10000); err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("iteration %d ran %d times", i, c)
		}
	}
}

func TestStaticScheduleCoversIterations(t *testing.T) {
	m := MustNew(testConfig(1))
	cl := m.Clusters[0]
	const n = 37
	seen := make([]int, n)
	progs := cl.StaticSchedule(n, func(iter int, g *isa.Gen) {
		op := isa.NewCompute(1)
		op.Do = func() { seen[iter]++ }
		g.Emit(op)
	})
	m.Dispatch(0, isa.NewSeq(cl.SpreadOp(progs)))
	if _, err := m.RunUntilIdle(10000); err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("iteration %d ran %d times", i, c)
		}
	}
}

func TestAllocators(t *testing.T) {
	m := MustNew(testConfig(2))
	a := m.AllocGlobal(100)
	b := m.AllocGlobal(50)
	if b < a+100 {
		t.Fatal("global allocations overlap")
	}
	m.AllocGlobalReset()
	if c := m.AllocGlobal(10); c != 0 {
		t.Fatalf("reset allocator starts at %d", c)
	}
	cl := m.Clusters[1]
	x := cl.Alloc(64)
	y := cl.Alloc(64)
	if y < x+64 {
		t.Fatal("cluster allocations overlap")
	}
	cl.AllocReset()
	if z := cl.Alloc(1); z != 0 {
		t.Fatalf("cluster reset starts at %d", z)
	}
}

func TestAllocGlobalExhaustionPanics(t *testing.T) {
	m := MustNew(testConfig(1))
	defer func() {
		if recover() == nil {
			t.Fatal("over-allocation did not panic")
		}
	}()
	m.AllocGlobal(uint64(m.Global.Words()) + 1)
}

func TestMFLOPS(t *testing.T) {
	// 1e6 flops in 1e6 cycles = 1e6 flops / 0.17 s = 5.88 MFLOPS.
	got := MFLOPS(1_000_000, 1_000_000)
	if got < 5.8 || got > 6.0 {
		t.Fatalf("MFLOPS = %.2f, want ~5.88", got)
	}
	if MFLOPS(100, 0) != 0 {
		t.Fatal("MFLOPS with zero cycles should be 0")
	}
}

// TestDeterminism: identical machines produce identical cycle counts.
func TestDeterminism(t *testing.T) {
	run := func() sim.Cycle {
		m := MustNew(testConfig(2))
		for id := 0; id < m.NumCEs(); id++ {
			seq := isa.NewSeq(
				isa.NewPrefetch(isa.Addr{Space: isa.Global, Word: uint64(id * 64)}, 64, 1),
				isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: uint64(id * 64)}, 64, 1, 2, true),
				isa.NewSync(0, network.FetchAndAdd(1)),
			)
			m.Dispatch(id, seq)
		}
		at, err := m.RunUntilIdle(100000)
		if err != nil {
			t.Fatal(err)
		}
		return at
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs quiesced at %d and %d", a, b)
	}
}

func TestGmemDefaultUnchanged(t *testing.T) {
	// The default machine uses the full 64 MB global memory.
	if gmem.Default().Words != 8<<20 {
		t.Fatal("default global memory size drifted")
	}
}

func TestUtilizationReport(t *testing.T) {
	m := MustNew(testConfig(1))
	m.Dispatch(0, isa.NewSeq(
		isa.NewPrefetch(isa.Addr{Space: isa.Global, Word: 0}, 64, 1),
		isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: 0}, 64, 1, 2, true),
	))
	if _, err := m.RunUntilIdle(10000); err != nil {
		t.Fatal(err)
	}
	u := m.Utilization()
	if u.Flops != 128 {
		t.Fatalf("Flops = %d", u.Flops)
	}
	if u.CEBusy <= 0 || u.CEBusy > 1 {
		t.Fatalf("CEBusy = %g", u.CEBusy)
	}
	if u.ModuleBusy <= 0 || u.ModuleBusy > 1 {
		t.Fatalf("ModuleBusy = %g", u.ModuleBusy)
	}
	if u.FwdWords == 0 || u.RevWords == 0 {
		t.Fatal("network words not counted")
	}
	if !strings.Contains(u.String(), "busy") {
		t.Fatal("report missing content")
	}
	// Fresh machine: zero-cycle report is well-formed.
	if z := MustNew(testConfig(1)).Utilization(); z.Cycles != 0 || z.CEBusy != 0 {
		t.Fatalf("zero report: %+v", z)
	}
}

func TestTopologyRendering(t *testing.T) {
	m := MustNew(testConfig(4))
	top := m.Topology()
	for _, want := range []string{
		"4 clusters x 8 CEs = 32 processors",
		"forward network: 64 ports, 2 stages of 8x8 crossbars",
		"reverse network",
		"32 modules",
		"cluster 3 (Alliant FX/8)",
		"512 KB",
		"concurrency control bus",
	} {
		if !strings.Contains(top, want) {
			t.Fatalf("topology missing %q:\n%s", want, top)
		}
	}
	// Ideal machines are labeled.
	cfg := testConfig(1)
	cfg.IdealNetwork = true
	mi := MustNew(cfg)
	if !strings.Contains(mi.Topology(), "ideal/contentionless") {
		t.Fatal("ideal fabric not labeled")
	}
}

// TestTopologyRoundTripMatchesLoad: the round trip the topology prints
// is what one scalar global load on the idle machine takes, on the
// as-built two-stage networks (8+5) and on the scaled topology's three
// stages (10+5).
func TestTopologyRoundTripMatchesLoad(t *testing.T) {
	roundTrip := regexp.MustCompile(`global round trip (\d+)\+(\d+) cycles`)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"cedar 4 clusters", ConfigClusters(4)},
		{"scaled 16 clusters", ScaledConfig(16)},
	} {
		m := MustNew(tc.cfg)
		got := roundTrip.FindStringSubmatch(m.Topology())
		if got == nil {
			t.Fatalf("%s: no round trip in the topology:\n%s", tc.name, m.Topology())
		}
		printed := got[1] + "+" + got[2]
		var doneAt sim.Cycle = -1
		op := isa.NewScalarLoad(isa.Addr{Space: isa.Global, Word: 5})
		op.OnDone = func(int64, bool) { doneAt = m.Eng.Now() }
		m.Dispatch(0, isa.NewSeq(op))
		if _, err := m.RunUntilIdle(1000); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%d+%d", doneAt-ce.XferCycles, ce.XferCycles); printed != want {
			t.Fatalf("%s: topology prints round trip %s, a scalar load measures %s", tc.name, printed, want)
		}
	}
}

// TestEngineTicksConserveSlots checks the engine's self-profile on both
// paths: one engine/ticks/<class> diagnostic per component class, and
// every component slot of every cycle is a tick, an elided tick or a
// fast-forwarded cycle. Wake-cached: sum of ticks + SkippedTicks =
// components x (Now - FastForwarded); naive: sum of ticks = components
// x Now. The architected fingerprints of the two runs agree.
func TestEngineTicksConserveSlots(t *testing.T) {
	wantClasses := []string{"ce", "pfu", "ip", "xylem/io", "fwd", "gmod", "rev"}
	var prints []string
	for _, mode := range []sim.EngineMode{sim.ModeNaive, sim.ModeWakeCached} {
		cfg := testConfig(1)
		cfg.EngineMode = mode
		m := MustNew(cfg)
		for id := 0; id < m.NumCEs(); id++ {
			a := isa.Addr{Space: isa.Global, Word: uint64(id * 64)}
			m.Dispatch(id, isa.NewSeq(
				isa.NewPrefetch(a, 64, 1),
				isa.NewVectorLoad(a, 64, 1, 2, true),
				isa.NewScalarLoad(a),
				isa.NewSync(0, network.FetchAndAdd(1)),
				isa.NewCompute(sim.Cycle(100*id)),
			))
		}
		if _, err := m.RunUntilIdle(100_000); err != nil {
			t.Fatal(err)
		}
		m.Eng.Run(500) // a quiet tail the wake-cached engine jumps over
		reg := m.Registry()
		var classes []string
		var ticks int64
		for _, p := range reg.Paths() {
			if class, ok := strings.CutPrefix(p, "engine/ticks/"); ok {
				classes = append(classes, class)
				n, _ := reg.Value(p)
				ticks += n
			}
		}
		if strings.Join(classes, " ") != strings.Join(wantClasses, " ") {
			t.Fatalf("%v: tick classes %v, want %v", mode, classes, wantClasses)
		}
		e := m.Eng
		slots := int64(e.Components()) * int64(e.Now()-sim.Cycle(e.FastForwarded))
		if ticks+e.SkippedTicks != slots {
			t.Errorf("%v: %d ticks + %d skipped != %d components x %d executed cycles",
				mode, ticks, e.SkippedTicks, e.Components(), e.Now()-sim.Cycle(e.FastForwarded))
		}
		if mode == sim.ModeNaive && (e.SkippedTicks != 0 || e.FastForwarded != 0) {
			t.Errorf("naive engine elided %d ticks and %d cycles", e.SkippedTicks, e.FastForwarded)
		}
		if mode == sim.ModeWakeCached && (e.SkippedTicks == 0 || e.FastForwarded == 0) {
			t.Errorf("wake-cached engine elided nothing: %d ticks, %d cycles", e.SkippedTicks, e.FastForwarded)
		}
		prints = append(prints, reg.Fingerprint())
	}
	if prints[0] != prints[1] {
		t.Fatal("registry fingerprints differ between engine paths")
	}
}

// TestFitGlobal: a footprint fits up to the last word of global memory,
// and one word more, or a product or sum that overflows 64 bits, is an
// ErrGlobalFull naming the caller.
func TestFitGlobal(t *testing.T) {
	m := MustNew(testConfig(1))
	words := uint64(m.Global.Words())
	for _, tc := range []struct {
		n, each, extra uint64
		fits           bool
	}{
		{words / 4, 4, 0, true},
		{words/4 - 1, 4, 4, true},
		{words / 4, 4, 1, false},
		{1 << 62, 4, 0, false},           // the product wraps to 0
		{math.MaxUint64, 1, 1, false},    // the sum wraps to 0
		{1 << 32, 1<<32 + 128, 0, false}, // rk's n(n+128) at n = 2^32
	} {
		err := m.FitGlobal("test", tc.n, tc.each, tc.extra)
		if tc.fits != (err == nil) {
			t.Errorf("FitGlobal(%d, %d, %d) = %v, want fits %v", tc.n, tc.each, tc.extra, err, tc.fits)
		}
		if err != nil && (!errors.Is(err, ErrGlobalFull) || !strings.HasPrefix(err.Error(), "test n=")) {
			t.Errorf("FitGlobal(%d, %d, %d) = %q, want an ErrGlobalFull prefixed by the caller", tc.n, tc.each, tc.extra, err)
		}
	}
}
