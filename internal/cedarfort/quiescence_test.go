package cedarfort

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/sim"
)

// TestXDOALLDeterministicAcrossEnginePaths runs the same self-scheduled
// loop nest on both engine paths and asserts the outcomes are
// bit-identical. The XDOALL path is the fast path's stress case: the
// 90 us dispatch startup leaves the whole machine quiet for ~530 cycles,
// which the engine should cross in one jump — and between loops every CE
// goes dormant, which the wake-cached path must survive because the
// dispatch entry points wake them.
func TestXDOALLDeterministicAcrossEnginePaths(t *testing.T) {
	run := func(mode sim.EngineMode) (elapsed [3]int64, m *core.Machine) {
		cfg := core.ConfigClusters(2)
		cfg.Global.Words = 1 << 16
		cfg.EngineMode = mode
		m = core.MustNew(cfg)
		r := New(m, DefaultConfig())
		for l := 0; l < 3; l++ {
			c, err := r.XDOALL(100, SelfScheduled, func(ctx *Ctx, iter int) {
				ctx.Emit(isa.NewCompute(50))
			})
			if err != nil {
				t.Fatal(err)
			}
			elapsed[l] = int64(c)
		}
		return elapsed, m
	}
	en, mn := run(sim.ModeNaive)
	ef, mf := run(sim.ModeWakeCached)
	if ef != en {
		t.Fatalf("per-loop elapsed cycles diverged: wake-cached %v, naive %v", ef, en)
	}
	if mf.Eng.Now() != mn.Eng.Now() {
		t.Fatalf("final time diverged: wake-cached %d vs naive %d", mf.Eng.Now(), mn.Eng.Now())
	}
	for i := range mf.CEs() {
		cf, cn := mf.CE(i), mn.CE(i)
		if cf.OpsDone != cn.OpsDone || cf.IdleCycles != cn.IdleCycles || cf.StallNet != cn.StallNet {
			t.Fatalf("ce%d counters diverged: ops %d/%d idle %d/%d stallnet %d/%d",
				i, cf.OpsDone, cn.OpsDone, cf.IdleCycles, cn.IdleCycles, cf.StallNet, cn.StallNet)
		}
	}
	if mf.Eng.FastForwarded == 0 {
		t.Fatal("XDOALL startup spans were not fast-forwarded")
	}
	if mf.Eng.DormantSkips == 0 {
		t.Fatal("wake-cached path never skipped a dormant component across XDOALL dispatches")
	}
	if mn.Eng.FastForwarded != 0 || mn.Eng.SkippedTicks != 0 {
		t.Fatal("naive engine took the fast path")
	}
}

// TestBarrierDeterministicAcrossEnginePaths covers the sync-heavy shape:
// participants spin on global memory at staggered arrival times.
func TestBarrierDeterministicAcrossEnginePaths(t *testing.T) {
	run := func(mode sim.EngineMode) (int64, int64) {
		cfg := core.ConfigClusters(1)
		cfg.Global.Words = 1 << 16
		cfg.EngineMode = mode
		m := core.MustNew(cfg)
		r := New(m, DefaultConfig())
		n := m.NumCEs()
		b := r.NewBarrier(n)
		for id := 0; id < n; id++ {
			g := isa.NewGen(func(g *isa.Gen) bool { return false })
			g.Emit(isa.NewCompute(sim.Cycle(10 * (id + 1)))) // staggered arrivals
			b.Emit(g)
			g.Emit(isa.NewCompute(1))
			m.Dispatch(id, g)
		}
		end, err := m.RunUntilIdle(200000)
		if err != nil {
			t.Fatal(err)
		}
		var sync int64
		for i := 0; i < m.Global.Modules(); i++ {
			sync += m.Global.Module(i).SyncOps
		}
		return int64(end), sync
	}
	en, sn := run(sim.ModeNaive)
	if ef, sf := run(sim.ModeWakeCached); ef != en || sf != sn {
		t.Fatalf("barrier diverged on wake-cached vs naive: end %d/%d syncops %d/%d", ef, en, sf, sn)
	}
}
