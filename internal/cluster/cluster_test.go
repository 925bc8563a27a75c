package cluster

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/ce"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/xylem"
)

// newCluster builds a bare cluster with CEs that have no network (only
// Compute ops are used here).
func newCluster(t *testing.T, nces int) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.New()
	cfg := DefaultConfig()
	cfg.CEs = nces
	ch := cache.New(cache.Config{CEs: nces})
	ces := make([]*ce.CE, nces)
	for i := range ces {
		ces[i] = ce.New(ce.DefaultConfig(), i, i, i, nil, ch, nil, nil)
		eng.Register("ce", ces[i])
	}
	return eng, New(cfg, 0, ch, ces)
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.CEs != 8 {
		t.Fatalf("CEs = %d, want 8", cfg.CEs)
	}
	if SpreadCycles != sim.FromMicroseconds(3) {
		t.Fatalf("spread cost = %d cycles, want ~3 us", SpreadCycles)
	}
	if MemWords != 4<<20 {
		t.Fatalf("cluster memory = %d words, want 4M (32 MB)", MemWords)
	}
}

func TestNewValidatesCECount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched CE count accepted")
		}
	}()
	cfg := DefaultConfig()
	ch := cache.New(cache.Config{})
	New(cfg, 0, ch, []*ce.CE{})
}

func TestAllocExhaustion(t *testing.T) {
	_, cl := newCluster(t, 2)
	cl.Alloc(MemWords)
	defer func() {
		if recover() == nil {
			t.Fatal("over-allocation accepted")
		}
	}()
	cl.Alloc(1)
}

func TestIdle(t *testing.T) {
	eng, cl := newCluster(t, 2)
	if !cl.Idle() {
		t.Fatal("fresh cluster not idle")
	}
	cl.CEs[0].SetProgram(isa.NewSeq(isa.NewCompute(5)))
	if cl.Idle() {
		t.Fatal("cluster idle with a running CE")
	}
	eng.Run(10)
	if !cl.Idle() {
		t.Fatal("cluster not idle after program end")
	}
}

// TestSpreadTiming: the gang programs start only after the spread cost
// has elapsed on the initiator.
func TestSpreadTiming(t *testing.T) {
	eng, cl := newCluster(t, 4)
	startedAt := make([]sim.Cycle, 4)
	progs := make([]isa.Program, 4)
	for i := range progs {
		op := isa.NewCompute(1)
		op.Do = func() { startedAt[i] = eng.Now() }
		progs[i] = isa.NewSeq(op)
	}
	cl.CEs[0].SetProgram(isa.NewSeq(cl.SpreadOp(progs)))
	if _, err := eng.RunUntil(cl.Idle, 1000); err != nil {
		t.Fatal(err)
	}
	for i, at := range startedAt {
		if at < SpreadCycles {
			t.Fatalf("CE %d ran at %d, before the %d-cycle spread completed", i, at, SpreadCycles)
		}
	}
}

func TestSpreadNilSlotsLeaveCEsIdle(t *testing.T) {
	eng, cl := newCluster(t, 4)
	ran := make([]bool, 4)
	progs := make([]isa.Program, 4)
	for _, i := range []int{1, 3} {
		op := isa.NewCompute(1)
		op.Do = func() { ran[i] = true }
		progs[i] = isa.NewSeq(op)
	}
	cl.CEs[0].SetProgram(isa.NewSeq(cl.SpreadOp(progs)))
	if _, err := eng.RunUntil(cl.Idle, 1000); err != nil {
		t.Fatal(err)
	}
	if ran[0] || ran[2] || !ran[1] || !ran[3] {
		t.Fatalf("nil-slot handling wrong: %v", ran)
	}
}

func TestSpreadWrongLengthPanics(t *testing.T) {
	_, cl := newCluster(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong program count accepted")
		}
	}()
	cl.SpreadOp(make([]isa.Program, 3))
}

// TestSelfScheduleLoadBalance: with unequal iteration costs, dynamic
// scheduling balances better than static — the paper's reason for
// offering both.
func TestSelfScheduleLoadBalance(t *testing.T) {
	run := func(dynamic bool) sim.Cycle {
		eng, cl := newCluster(t, 4)
		const n = 16
		body := func(iter int, g *isa.Gen) {
			// Iteration cost skewed: iterations 0..3 are 100x heavier,
			// landing on the same static CE.
			cost := sim.Cycle(10)
			if iter%4 == 0 {
				cost = 1000
			}
			g.Emit(isa.NewCompute(cost))
		}
		var progs []isa.Program
		if dynamic {
			progs = cl.SelfSchedule(n, body)
		} else {
			progs = cl.StaticSchedule(n, body)
		}
		cl.CEs[0].SetProgram(isa.NewSeq(cl.SpreadOp(progs)))
		at, err := eng.RunUntil(cl.Idle, 100000)
		if err != nil {
			t.Fatal(err)
		}
		return at
	}
	static := run(false)
	dynamic := run(true)
	if dynamic >= static {
		t.Fatalf("self-scheduling (%d cycles) not better than static (%d) on skewed work", dynamic, static)
	}
}

func TestSelfScheduleClaimCost(t *testing.T) {
	eng, cl := newCluster(t, 1)
	const n = 10
	progs := cl.SelfSchedule(n, func(iter int, g *isa.Gen) {
		g.Emit(isa.NewCompute(1))
	})
	cl.CEs[0].SetProgram(isa.NewSeq(cl.SpreadOp(progs)))
	at, err := eng.RunUntil(cl.Idle, 10000)
	if err != nil {
		t.Fatal(err)
	}
	// Spread + n iterations x (claim + op transitions + body).
	minimum := SpreadCycles + sim.Cycle(n)*(ClaimCycles+1)
	if at < minimum {
		t.Fatalf("loop finished at %d, below the bus cost floor %d", at, minimum)
	}
}

func TestIPServesSequentially(t *testing.T) {
	eng := sim.New()
	ip := NewIP()
	eng.Register("ip", ip)
	var done []sim.Cycle
	// Two unformatted transfers of 1000 words each (~0.6 us/word).
	for i := 0; i < 2; i++ {
		ip.Submit(eng.Now(), 1000, false, func(xylem.IOCompletion) { done = append(done, eng.Now()) })
	}
	if ip.Pending() != 2 {
		t.Fatalf("Pending = %d", ip.Pending())
	}
	if _, err := eng.RunUntil(func() bool { return len(done) == 2 }, 100000); err != nil {
		t.Fatal(err)
	}
	per := sim.FromMicroseconds(0.6) * 1000
	if done[0] < per || done[0] > per+5 {
		t.Fatalf("first transfer done at %d, want ~%d", done[0], per)
	}
	// Serialized: second completes about one service time later.
	if done[1] < done[0]+per-5 {
		t.Fatalf("transfers overlapped: %v", done)
	}
	if ip.Requests != 2 || ip.BusyCycles == 0 {
		t.Fatalf("counters: %d/%d", ip.Requests, ip.BusyCycles)
	}
}

func TestIPFormattedIsSlower(t *testing.T) {
	run := func(formatted bool) sim.Cycle {
		eng := sim.New()
		ip := NewIP()
		eng.Register("ip", ip)
		var at sim.Cycle
		ip.Submit(eng.Now(), 500, formatted, func(xylem.IOCompletion) { at = eng.Now() })
		if _, err := eng.RunUntil(func() bool { return at > 0 }, 1000000); err != nil {
			t.Fatal(err)
		}
		return at
	}
	if f, u := run(true), run(false); f < 10*u {
		t.Fatalf("formatted (%d) not ~16x unformatted (%d)", f, u)
	}
}

func TestIPNegativeSizePanics(t *testing.T) {
	ip := NewIP()
	defer func() {
		if recover() == nil {
			t.Fatal("negative I/O accepted")
		}
	}()
	ip.Submit(0, -1, false, nil)
}
