package cedarfort

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/sim"
)

func testMachine(clusters int) *core.Machine {
	cfg := core.ConfigClusters(clusters)
	cfg.Global.Words = 1 << 16
	return core.MustNew(cfg)
}

func TestDefaultConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  sim.Cycle
		us   float64
	}{
		{"XDOALL startup", XDOALLStartup, 90},
		{"SDOALL startup", SDOALLStartup, 90},
		{"slow iteration fetch", IterFetchSlow, 30},
		{"fast iteration fetch", IterFetchFast, 4},
	} {
		if tc.got != sim.FromMicroseconds(tc.us) {
			t.Fatalf("%s = %d cycles, want %g us", tc.name, tc.got, tc.us)
		}
	}
	if c := DefaultConfig(); !c.UseCedarSync {
		t.Fatal("default must use Cedar synchronization")
	}
}

func TestXDOALLSelfScheduledCoverage(t *testing.T) {
	m := testMachine(2)
	r := New(m, DefaultConfig())
	const n = 200
	seen := make([]int, n)
	byCE := map[int]int{}
	elapsed, err := r.XDOALL(n, SelfScheduled, func(ctx *Ctx, iter int) {
		op := isa.NewCompute(50)
		op.Do = func() { seen[iter]++; byCE[ctx.CE.ID]++ }
		ctx.Emit(op)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("iteration %d ran %d times", i, c)
		}
	}
	if len(byCE) < 8 {
		t.Fatalf("only %d CEs participated, want most of 16", len(byCE))
	}
	if elapsed <= XDOALLStartup {
		t.Fatalf("elapsed %d cycles does not include the 90 us startup (%d)", elapsed, XDOALLStartup)
	}
}

func TestXDOALLStaticCoverage(t *testing.T) {
	m := testMachine(1)
	r := New(m, DefaultConfig())
	const n = 37
	seen := make([]int, n)
	ceOf := make([]int, n)
	_, err := r.XDOALL(n, Static, func(ctx *Ctx, iter int) {
		op := isa.NewCompute(10)
		op.Do = func() { seen[iter]++; ceOf[iter] = ctx.CE.ID }
		ctx.Emit(op)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if seen[i] != 1 {
			t.Fatalf("iteration %d ran %d times", i, seen[i])
		}
		if ceOf[i] != i%8 {
			t.Fatalf("static iteration %d ran on CE %d, want %d", i, ceOf[i], i%8)
		}
	}
}

// TestXDOALLSyncCostDifference: without Cedar synchronization each
// iteration fetch costs ~30 us instead of ~4 us, so a fine-grained loop
// slows down — the mechanism behind Table 3's "W/o Cedar Sync" column.
func TestXDOALLSyncCostDifference(t *testing.T) {
	run := func(useSync bool) sim.Cycle {
		m := testMachine(1)
		cfg := DefaultConfig()
		cfg.UseCedarSync = useSync
		r := New(m, cfg)
		elapsed, err := r.XDOALL(64, SelfScheduled, func(ctx *Ctx, iter int) {
			ctx.Emit(isa.NewCompute(100)) // small-granularity iteration
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	fast, slow := run(true), run(false)
	if slow <= fast {
		t.Fatalf("no-sync run (%d) not slower than Cedar-sync run (%d)", slow, fast)
	}
	ratio := float64(slow) / float64(fast)
	if ratio < 1.5 {
		t.Fatalf("sync cost ratio = %.2f, expected a pronounced slowdown on fine grain", ratio)
	}
}

// TestXDOALLScalesWithCEs: a coarse-grain loop speeds up with more
// clusters.
func TestXDOALLScalesWithCEs(t *testing.T) {
	run := func(clusters int) sim.Cycle {
		m := testMachine(clusters)
		r := New(m, DefaultConfig())
		elapsed, err := r.XDOALL(128, SelfScheduled, func(ctx *Ctx, iter int) {
			ctx.Emit(isa.NewCompute(5000))
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	one, four := run(1), run(4)
	speedup := float64(one) / float64(four)
	if speedup < 2.5 {
		t.Fatalf("4-cluster speedup = %.2f on a coarse loop, want > 2.5", speedup)
	}
}

func TestSerialAdvancesTime(t *testing.T) {
	m := testMachine(1)
	r := New(m, DefaultConfig())
	t0 := m.Eng.Now()
	r.Serial(1234)
	if m.Eng.Now()-t0 != 1234 {
		t.Fatalf("Serial advanced %d cycles, want 1234", m.Eng.Now()-t0)
	}
}

func TestSDOALLAffinity(t *testing.T) {
	m := testMachine(2)
	r := New(m, DefaultConfig())
	const n = 10
	clusterOf := make([]int, n)
	_, err := r.SDOALL(n, true, func(ctx *Ctx, iter int) {
		op := isa.NewCompute(10)
		op.Do = func() { clusterOf[iter] = ctx.Cluster.ID }
		ctx.Emit(op)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range clusterOf {
		if clusterOf[i] != i%2 {
			t.Fatalf("iteration %d on cluster %d, want %d (affinity)", i, clusterOf[i], i%2)
		}
	}
}

func TestSDOALLSelfScheduledCoverage(t *testing.T) {
	m := testMachine(2)
	r := New(m, DefaultConfig())
	const n = 12
	seen := make([]int, n)
	_, err := r.SDOALL(n, false, func(ctx *Ctx, iter int) {
		op := isa.NewCompute(10)
		op.Do = func() { seen[iter]++ }
		ctx.Emit(op)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("iteration %d ran %d times", i, c)
		}
	}
}

// TestSDOALLWithCDOALL exercises the paper's SDOALL/CDOALL nest: each
// SDOALL iteration spreads an inner loop across its cluster's 8 CEs via
// the concurrency bus.
func TestSDOALLWithCDOALL(t *testing.T) {
	m := testMachine(2)
	r := New(m, DefaultConfig())
	const outer, inner = 6, 32
	var counts [outer][inner]int
	_, err := r.SDOALL(outer, true, func(ctx *Ctx, iter int) {
		ctx.Emit(isa.NewCompute(20)) // leader-side work
		ctx.CDOALL(inner, SelfScheduled, func(ictx *Ctx, j int) {
			op := isa.NewCompute(15)
			op.Do = func() { counts[iter][j]++ }
			ictx.Emit(op)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < outer; i++ {
		for j := 0; j < inner; j++ {
			if counts[i][j] != 1 {
				t.Fatalf("outer %d inner %d ran %d times", i, j, counts[i][j])
			}
		}
	}
}

// TestSDOALLChainedCDOALLs: two CDOALLs in one body run in sequence.
func TestSDOALLChainedCDOALLs(t *testing.T) {
	m := testMachine(1)
	r := New(m, DefaultConfig())
	var order []string
	_, err := r.SDOALL(1, true, func(ctx *Ctx, iter int) {
		ctx.CDOALL(8, Static, func(ictx *Ctx, j int) {
			op := isa.NewCompute(10)
			op.Do = func() { order = append(order, "a") }
			ictx.Emit(op)
		})
		ctx.CDOALL(8, Static, func(ictx *Ctx, j int) {
			op := isa.NewCompute(10)
			op.Do = func() { order = append(order, "b") }
			ictx.Emit(op)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 16 {
		t.Fatalf("%d inner iterations ran, want 16", len(order))
	}
	for i, s := range order {
		want := "a"
		if i >= 8 {
			want = "b"
		}
		if s != want {
			t.Fatalf("phase order violated at %d: %v", i, order)
		}
	}
}

// TestCDOALLFasterThanXDOALL: the concurrency bus makes an intra-cluster
// loop much cheaper to start than a machine-wide loop — the paper's
// reason for the SDOALL/CDOALL design.
func TestCDOALLStartupAdvantage(t *testing.T) {
	body := func(ctx *Ctx, iter int) { ctx.Emit(isa.NewCompute(50)) }

	m1 := testMachine(1)
	r1 := New(m1, DefaultConfig())
	xdoall, err := r1.XDOALL(8, SelfScheduled, body)
	if err != nil {
		t.Fatal(err)
	}

	m2 := testMachine(1)
	r2 := New(m2, DefaultConfig())
	// A single SDOALL iteration whose body is one CDOALL: the inner loop
	// cost is dominated by the bus spread, but the SDOALL wrapper still
	// pays its own startup; compare only the inner portion by
	// subtracting the startup constant.
	sdoall, err := r2.SDOALL(1, true, func(ctx *Ctx, iter int) {
		ctx.CDOALL(8, SelfScheduled, body)
	})
	if err != nil {
		t.Fatal(err)
	}
	inner := sdoall - SDOALLStartup
	if inner >= xdoall {
		t.Fatalf("CDOALL path (%d cycles after startup) not cheaper than XDOALL (%d)", inner, xdoall)
	}
}

func TestBarrierReleasesAllParticipants(t *testing.T) {
	m := testMachine(2)
	r := New(m, DefaultConfig())
	const p = 16
	b := r.NewBarrier(p)
	after := make([]sim.Cycle, p)
	before := make([]sim.Cycle, p)
	for id := 0; id < p; id++ {
		g := isa.NewGen(func(g *isa.Gen) bool { return false })
		pre := isa.NewCompute(sim.Cycle(10 * (id + 1))) // staggered arrivals
		pre.Do = func() { before[id] = m.Eng.Now() }
		g.Emit(pre)
		b.Emit(g)
		post := isa.NewCompute(1)
		post.Do = func() { after[id] = m.Eng.Now() }
		g.Emit(post)
		m.Dispatch(id, g)
	}
	if _, err := m.RunUntilIdle(1_000_000); err != nil {
		t.Fatal(err)
	}
	var lastArrive sim.Cycle
	for _, c := range before {
		if c > lastArrive {
			lastArrive = c
		}
	}
	for id, c := range after {
		if c <= lastArrive {
			t.Fatalf("participant %d passed the barrier at %d before last arrival %d", id, c, lastArrive)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	m := testMachine(1)
	r := New(m, DefaultConfig())
	const p = 8
	b := r.NewBarrier(p)
	phase := make([]int, p)
	bad := false
	for id := 0; id < p; id++ {
		g := isa.NewGen(func(g *isa.Gen) bool { return false })
		for ep := 0; ep < 3; ep++ {
			work := isa.NewCompute(sim.Cycle(5 + id))
			epoch := ep
			work.Do = func() {
				if phase[id] != epoch {
					bad = true
				}
				phase[id]++
			}
			g.Emit(work)
			b.Emit(g)
		}
		m.Dispatch(id, g)
	}
	if _, err := m.RunUntilIdle(1_000_000); err != nil {
		t.Fatal(err)
	}
	if bad {
		t.Fatal("a participant entered an epoch before the barrier released the previous one")
	}
	for id, ph := range phase {
		if ph != 3 {
			t.Fatalf("participant %d completed %d epochs, want 3", id, ph)
		}
	}
}

func TestXDOALLOnBusyMachinePanics(t *testing.T) {
	m := testMachine(1)
	r := New(m, DefaultConfig())
	m.Dispatch(0, isa.NewSeq(isa.NewCompute(1000)))
	defer func() {
		if recover() == nil {
			t.Fatal("XDOALL on a busy machine did not panic")
		}
	}()
	_, _ = r.XDOALL(4, Static, func(ctx *Ctx, iter int) {})
}

// TestBarrierRandomizedNeverDeadlocks: random per-participant work
// before each of several barrier episodes; the barrier must release
// everyone every time, never deadlock, and never let a participant run
// ahead an epoch.
func TestBarrierRandomizedNeverDeadlocks(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		m := testMachine(2)
		r := New(m, DefaultConfig())
		rng := sim.NewRand(seed)
		const p = 16
		const epochs = 5
		b := r.NewBarrier(p)
		phase := make([]int, p)
		minPhase := func() int {
			mn := phase[0]
			for _, v := range phase {
				if v < mn {
					mn = v
				}
			}
			return mn
		}
		violated := false
		for id := 0; id < p; id++ {
			g := isa.NewGen(func(g *isa.Gen) bool { return false })
			for ep := 0; ep < epochs; ep++ {
				work := isa.NewCompute(sim.Cycle(1 + rng.Intn(400)))
				work.Do = func() {
					// No participant may start epoch k+1 work before
					// every participant finished epoch k.
					if phase[id] > minPhase() {
						violated = true
					}
					phase[id]++
				}
				g.Emit(work)
				b.Emit(g)
			}
			m.Dispatch(id, g)
		}
		if _, err := m.RunUntilIdle(10_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if violated {
			t.Fatalf("seed %d: a participant ran ahead of the barrier", seed)
		}
		for id, ph := range phase {
			if ph != epochs {
				t.Fatalf("seed %d: participant %d completed %d of %d epochs", seed, id, ph, epochs)
			}
		}
	}
}
