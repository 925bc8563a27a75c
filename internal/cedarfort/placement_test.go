package cedarfort

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/perfmon"
	"repro/internal/sim"
)

func TestPlacementDeclarations(t *testing.T) {
	m := testMachine(2)
	r := New(m, DefaultConfig())
	g := r.Global(100)
	if g.Space != isa.Global {
		t.Fatal("Global placed in cluster space")
	}
	c0 := r.ClusterLocal(0, 50)
	c1 := r.ClusterLocal(1, 50)
	if c0.Space != isa.Cluster || c1.Space != isa.Cluster {
		t.Fatal("ClusterLocal placed in global space")
	}
	// Cluster spaces are private: both may start at 0.
	if c0.Word != 0 || c1.Word != 0 {
		t.Fatalf("first cluster allocations at %d/%d, want 0/0", c0.Word, c1.Word)
	}
}

func TestLoopLocalPrivateCopies(t *testing.T) {
	m := testMachine(1)
	r := New(m, DefaultConfig())
	addrs := map[int]uint64{}
	_, err := r.XDOALL(8, Static, func(ctx *Ctx, iter int) {
		a := ctx.LoopLocal(16)
		// Each CE's private copy is a distinct cluster allocation.
		addrs[ctx.CE.ID] = a.Word
		ctx.Emit(isa.NewVectorStore(a, 16, 1, 0))
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, w := range addrs {
		if seen[w] {
			t.Fatalf("two loop-local copies share address %d", w)
		}
		seen[w] = true
	}
}

// TestMoveOpsTiming: an explicit global-to-cluster move streams at the
// prefetched rate, far faster than unprefetched element access.
func TestMoveOpsTiming(t *testing.T) {
	m := testMachine(1)
	r := New(m, DefaultConfig())
	src := r.Global(1024)
	dst := r.ClusterLocal(0, 1024)
	moved := false
	ops := MoveOps(dst, src, 1024, func() { moved = true })
	m.Dispatch(0, isa.NewSeq(ops...))
	at, err := m.RunUntilIdle(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("move completion callback did not run")
	}
	// ~1.1 cycles/word streaming + block overheads; far below the
	// 6.5 cycles/word of unprefetched access.
	if at > 3*1024 {
		t.Fatalf("1024-word move took %d cycles", at)
	}
	if est := r.MoveSeconds(1024); est <= 0 || est > at.Seconds()*10 {
		t.Fatalf("MoveSeconds estimate %.2e inconsistent with measured %.2e", est, at.Seconds())
	}
}

func TestMoveOpsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("same-space move accepted")
		}
	}()
	MoveOps(isa.Addr{Space: isa.Global}, isa.Addr{Space: isa.Global, Word: 8}, 4, nil)
}

func TestMoveOpsRoundTrip(t *testing.T) {
	m := testMachine(1)
	r := New(m, DefaultConfig())
	src := r.Global(64)
	local := r.ClusterLocal(0, 64)
	// Cluster -> global direction also works.
	back := MoveOps(src, local, 64, nil)
	in := MoveOps(local, src, 64, nil)
	m.Dispatch(0, isa.NewSeq(append(in, back...)...))
	if _, err := m.RunUntilIdle(100000); err != nil {
		t.Fatal(err)
	}
}

// TestSoftwareEventPosting: programs post time-stamped events to the
// monitoring hardware; the stamps are the completion cycles in order.
func TestSoftwareEventPosting(t *testing.T) {
	m := testMachine(1)
	r := New(m, DefaultConfig())
	tr := perfmon.NewTracer(16)
	m.Dispatch(0, isa.NewSeq(
		r.TraceOp(tr, 1, 10),
		isa.NewCompute(100),
		r.TraceOp(tr, 2, 20),
	))
	if _, err := m.RunUntilIdle(10000); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("%d events, want 2", tr.Len())
	}
	e0, e1 := tr.Events[0], tr.Events[1]
	if e0.Kind != 1 || e0.Arg != 10 || e1.Kind != 2 || e1.Arg != 20 {
		t.Fatalf("events %+v %+v", e0, e1)
	}
	if gap := e1.Cycle - e0.Cycle; gap < 100 {
		t.Fatalf("events %d cycles apart, want >= the 100-cycle compute", gap)
	}
	_ = sim.Cycle(0)
}

// TestIOParksAndSerializes: the BDNA story on the simulator — Ctx.IO
// parks the issuing program in the Xylem I/O wait table until the IP's
// completion handle arrives; formatted I/O through the cluster's IP
// dominates raw I/O, concurrent requests from one cluster serialize at
// the IP, and every park is attributed exactly once.
func TestIOParksAndSerializes(t *testing.T) {
	run := func(formatted bool) (*core.Machine, sim.Cycle) {
		m := testMachine(1)
		r := New(m, DefaultConfig())
		elapsed, err := r.XDOALL(4, Static, func(ctx *Ctx, iter int) {
			ctx.IONamed(200, formatted, "parker")
		})
		if err != nil {
			t.Fatal(err)
		}
		return m, elapsed
	}
	mf, f := run(true)
	mu, u := run(false)
	if f < 5*u {
		t.Fatalf("formatted I/O (%d cycles) not much slower than raw (%d)", f, u)
	}
	per := sim.FromMicroseconds(0.6) * 200
	if u < 4*per {
		t.Fatalf("4 raw transfers finished in %d cycles; IP serialization missing (one transfer ~%d)", u, per)
	}
	for _, m := range []*core.Machine{mf, mu} {
		w := m.IOWait
		if w.Parks() != 4 || w.Completions() != 4 || w.Parked() != 0 {
			t.Fatalf("park table parks=%d completions=%d parked=%d, want 4/4/0",
				w.Parks(), w.Completions(), w.Parked())
		}
	}
	// Serialized transfers mean later requests wait in the IP queue, so
	// summed wait exceeds summed pure service time.
	ip := mu.Clusters[0].IPs
	if ip.WaitCycles <= ip.BusyCycles {
		t.Fatalf("summed wait %d not above summed service %d; queueing not attributed",
			ip.WaitCycles, ip.BusyCycles)
	}
}
