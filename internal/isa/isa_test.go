package isa

import (
	"testing"

	"repro/internal/network"
	"repro/internal/sim"
)

func TestSpaceString(t *testing.T) {
	if Cluster.String() != "cluster" || Global.String() != "global" {
		t.Fatal("Space.String wrong")
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{Compute: "compute", Vector: "vector", Prefetch: "prefetch",
		Scalar: "scalar", Sync: "sync", Kind(99): "unknown"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestConstructors(t *testing.T) {
	c := NewCompute(10)
	if c.Kind != Compute || c.Cycles != 10 {
		t.Fatalf("NewCompute: %+v", c)
	}
	v := NewVectorLoad(Addr{Global, 100}, 32, 0, 2, true)
	if v.Kind != Vector || v.Stride != 1 || v.N != 32 || !v.UsePrefetch || v.Write {
		t.Fatalf("NewVectorLoad: %+v", v)
	}
	s := NewVectorStore(Addr{Cluster, 4}, 8, 2, 1)
	if !s.Write || s.Stride != 2 {
		t.Fatalf("NewVectorStore: %+v", s)
	}
	p := NewPrefetch(Addr{Global, 0}, 256, 1)
	if p.Kind != Prefetch || p.PFN != 256 {
		t.Fatalf("NewPrefetch: %+v", p)
	}
	sl := NewScalarLoad(Addr{Global, 7})
	if sl.Kind != Scalar || sl.ScalarWrite {
		t.Fatalf("NewScalarLoad: %+v", sl)
	}
	ss := NewScalarStore(Addr{Cluster, 7})
	if !ss.ScalarWrite {
		t.Fatalf("NewScalarStore: %+v", ss)
	}
	sy := NewSync(40, network.TestAndSet())
	if sy.Kind != Sync || sy.SyncAddr != 40 {
		t.Fatalf("NewSync: %+v", sy)
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewCompute(-1) },
		func() { NewVectorLoad(Addr{Global, 0}, -1, 1, 0, false) },
		func() { NewVectorLoad(Addr{Cluster, 0}, 8, 1, 0, true) }, // prefetch from cluster
		func() { NewVectorStore(Addr{Global, 0}, -2, 1, 0) },
		func() { NewPrefetch(Addr{Cluster, 0}, 8, 1) },
		func() { NewPrefetch(Addr{Global, 0}, 513, 1) },
		func() { NewGen(nil) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSeq(t *testing.T) {
	a, b := NewCompute(1), NewCompute(2)
	s := NewSeq(a, b)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Next() != a || s.Next() != b || s.Next() != nil {
		t.Fatal("Seq order wrong")
	}
	if s.Next() != nil {
		t.Fatal("exhausted Seq returned an op")
	}
	s2 := NewSeq(a)
	s2.Add(b)
	if s2.Next() != a || s2.Next() != b {
		t.Fatal("Add broken")
	}
}

func TestGenEmitsUntilDone(t *testing.T) {
	n := 0
	g := NewGen(func(g *Gen) bool {
		if n >= 3 {
			return false
		}
		n++
		g.Emit(NewCompute(sim.Cycle(n)))
		return true
	})
	var got []int
	for op := g.Next(); op != nil; op = g.Next() {
		got = append(got, int(op.Cycles))
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Gen produced %v", got)
	}
	if g.Next() != nil {
		t.Fatal("done Gen produced an op")
	}
}

func TestGenEmitMultiple(t *testing.T) {
	calls := 0
	g := NewGen(func(g *Gen) bool {
		calls++
		if calls > 1 {
			return false
		}
		g.Emit(NewCompute(1), NewCompute(2), NewCompute(3))
		return true
	})
	count := 0
	for op := g.Next(); op != nil; op = g.Next() {
		count++
		_ = op
	}
	if count != 3 {
		t.Fatalf("emitted %d ops, want 3", count)
	}
	if calls != 2 {
		t.Fatalf("fill called %d times, want 2", calls)
	}
}

func TestGenFinalEmit(t *testing.T) {
	// fill may emit and return false in the same call; those ops must
	// still run.
	first := true
	g := NewGen(func(g *Gen) bool {
		if first {
			first = false
			g.Emit(NewCompute(7))
		}
		return false
	})
	op := g.Next()
	if op == nil || op.Cycles != 7 {
		t.Fatal("final-emit op lost")
	}
	if g.Next() != nil {
		t.Fatal("Gen not done after final emit")
	}
}

// TestGenEmitFrontInPlace checks that EmitFront splices operations ahead
// of the queue in order, and reuses the queue's backing array when it
// has room.
func TestGenEmitFrontInPlace(t *testing.T) {
	a, b, c := NewCompute(1), NewCompute(2), NewCompute(3)
	g := NewGen(func(*Gen) bool { return false })
	g.queue = make([]*Op, 0, 3)
	if allocs := testing.AllocsPerRun(1, func() {
		g.queue = g.queue[:0]
		g.Emit(c)
		g.EmitFront(a, b)
	}); allocs != 0 {
		t.Fatalf("EmitFront into a queue with room allocated %v times", allocs)
	}
	for i, want := range []*Op{a, b, c} {
		if got := g.Next(); got != want {
			t.Fatalf("op %d: got %+v, want %+v", i, got, want)
		}
	}
	if g.Next() != nil {
		t.Fatal("program did not end after a, b, c")
	}
}
