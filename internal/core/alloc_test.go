package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/gmem"
	"repro/internal/isa"
	"repro/internal/network"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// loopProgram runs its pre-built operations round-robin forever, so
// handing the CE its next operation allocates nothing.
type loopProgram struct {
	ops []*isa.Op
	i   int
}

func (l *loopProgram) Next() *isa.Op {
	op := l.ops[l.i]
	if l.i++; l.i == len(l.ops) {
		l.i = 0
	}
	return op
}

const streamWords = 128

// prefetchOps streams streamWords words from base at stride through the
// prefetch unit.
func prefetchOps(base uint64, stride int) []*isa.Op {
	a := isa.Addr{Space: isa.Global, Word: base}
	return []*isa.Op{isa.NewPrefetch(a, streamWords, stride), isa.NewVectorLoad(a, streamWords, stride, 2, true)}
}

// directOps streams streamWords words from base with direct requests,
// at most two outstanding.
func directOps(base uint64) []*isa.Op {
	return []*isa.Op{isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: base}, streamWords, 1, 2, false)}
}

// storeOps streams streamWords posted writes from base.
func storeOps(base uint64) []*isa.Op {
	return []*isa.Op{isa.NewVectorStore(isa.Addr{Space: isa.Global, Word: base}, streamWords, 1, 0)}
}

// streamMachine builds a one-cluster machine whose CE i runs ops(i,
// base) forever, base starting a streamWords-word region of its own (a
// strided stream reads past it, which is harmless: loads only read),
// and runs it past the point where every free list and queue has
// reached its peak.
func streamMachine(ops func(ce int, base uint64) []*isa.Op) *Machine {
	m := MustNew(testConfig(1))
	for i := 0; i < m.NumCEs(); i++ {
		m.Dispatch(i, &loopProgram{ops: ops(i, m.AllocGlobal(streamWords))})
	}
	m.Eng.Run(20_000)
	return m
}

// TestTickPathAllocationFree guards the steady-state tick path: once
// warm, a machine streaming prefetched and direct global vector loads,
// fetch-and-add syncs and vector stores executes 1,000 cycles without
// allocating — requests come from the issuers' free lists, memory
// modules rewrite them into replies in place, and the issuers take them
// back; a posted write has no reply, so its module puts it back on its
// issuer's list. The prefetch streams stride by the module count, so
// each hammers one module and the forward network refuses offers:
// refused packets must go back on the list too.
func TestTickPathAllocationFree(t *testing.T) {
	m := streamMachine(func(ce int, base uint64) []*isa.Op {
		switch ce % 4 {
		case 0:
			return prefetchOps(base, testConfig(1).Global.Modules)
		case 1:
			return directOps(base)
		case 2:
			return storeOps(base)
		}
		return []*isa.Op{isa.NewSync(base, network.FetchAndAdd(1)), isa.NewCompute(5)}
	})
	var pfuIssued int64
	for _, c := range m.CEs() {
		pfuIssued += c.PFU().Issued
	}
	injected, rejected, syncs, writes := m.Fwd.Injected, m.Fwd.Rejected, moduleCount(m, syncOpsOf), moduleCount(m, writesOf)

	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			m.Eng.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations in 1,000 steady-state cycles, want 0", allocs)
	}

	// Vacuity guard: every traffic class was live in the measured window.
	var pfuNow int64
	for _, c := range m.CEs() {
		pfuNow += c.PFU().Issued
	}
	syncsNow, writesNow := moduleCount(m, syncOpsOf), moduleCount(m, writesOf)
	if pfuNow == pfuIssued || m.Fwd.Injected-injected <= pfuNow-pfuIssued ||
		m.Fwd.Rejected == rejected || syncsNow == syncs || writesNow == writes {
		t.Fatalf("measured window idle: prefetch issued %d, injected %d, refused %d, syncs %d, writes %d",
			pfuNow-pfuIssued, m.Fwd.Injected-injected, m.Fwd.Rejected-rejected, syncsNow-syncs, writesNow-writes)
	}
}

func syncOpsOf(mod *gmem.Module) int64 { return mod.SyncOps }
func writesOf(mod *gmem.Module) int64  { return mod.Writes }

// moduleCount sums one counter over the global memory modules.
func moduleCount(m *Machine, count func(*gmem.Module) int64) int64 {
	var n int64
	for i := 0; i < m.Global.Modules(); i++ {
		n += count(m.Global.Module(i))
	}
	return n
}

// BenchmarkMachineCycle reports the host cost of one simulated cycle of
// a one-cluster machine whose eight CEs stream global vector loads,
// through the prefetch units or as direct requests, stream global
// vector stores, or spin fetch-and-add on one word (word 0, the first
// CE's region). A load or sync parks its CE on the reply for most of
// every round trip; a store is posted.
func BenchmarkMachineCycle(b *testing.B) {
	for _, bc := range []struct {
		name string
		ops  func(ce int, base uint64) []*isa.Op
	}{
		{"prefetch", func(_ int, base uint64) []*isa.Op { return prefetchOps(base, 1) }},
		{"direct", func(_ int, base uint64) []*isa.Op { return directOps(base) }},
		{"store", func(_ int, base uint64) []*isa.Op { return storeOps(base) }},
		{"sync", func(int, uint64) []*isa.Op { return []*isa.Op{isa.NewSync(0, network.FetchAndAdd(1))} }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := streamMachine(bc.ops)
			b.ReportAllocs()
			b.ResetTimer()
			start := m.Eng.Now()
			for i := 0; i < b.N; i++ {
				m.Eng.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(m.Eng.Now()-start), "ns/cycle")
		})
	}
}

// TestRecycledPacketStampedAgain checks that an issuer reusing a packet
// from its free list gets a fresh injection stamp: the reply to its
// first request carries BornSet, and a reuse that kept it would measure
// the second round trip from the first request's issue. On an idle
// machine both round trips must be equal, for the CE's direct requests
// and the PFU's alike.
func TestRecycledPacketStampedAgain(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  func(base uint64) []*isa.Op
	}{
		{"ce", func(base uint64) []*isa.Op {
			a := isa.Addr{Space: isa.Global, Word: base}
			return []*isa.Op{isa.NewScalarLoad(a), isa.NewCompute(50), isa.NewScalarLoad(a)}
		}},
		{"pfu", func(base uint64) []*isa.Op {
			a := isa.Addr{Space: isa.Global, Word: base}
			return []*isa.Op{
				isa.NewPrefetch(a, 1, 1), isa.NewVectorLoad(a, 1, 1, 0, true), isa.NewCompute(50),
				isa.NewPrefetch(a, 1, 1), isa.NewVectorLoad(a, 1, 1, 0, true),
			}
		}},
	} {
		m := MustNew(testConfig(1))
		var replies []*network.Packet
		var trips []sim.Cycle
		m.Rev.OnDeliver = func(now sim.Cycle, _ int, p *network.Packet) {
			replies = append(replies, p)
			trips = append(trips, now-p.Born)
		}
		m.Dispatch(0, isa.NewSeq(tc.ops(m.AllocGlobal(1))...))
		if _, err := m.RunUntilIdle(10_000); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(replies) != 2 || replies[0] != replies[1] {
			t.Fatalf("%s: replies %p, want the same recycled packet twice", tc.name, replies)
		}
		if trips[0] < 8 || trips[1] != trips[0] {
			t.Fatalf("%s: round trips %v, want two equal trips of at least 8 cycles", tc.name, trips)
		}
	}
}

// pfuSink keeps a measured PFU on the heap, where a machine's are.
var pfuSink *prefetch.PFU

// allocated returns the fewest bytes f allocated over three calls.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestShortJobAllocations bounds what a short job allocates outside its
// simulated cycles: a machine whose shape was built before binds its
// registry without building paths, a fingerprint allocates its text and
// little more, and a prefetch unit armed with one 32-word strip carries
// 32 buffer slots, not 512.
func TestShortJobAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocations weigh")
	}
	MustNew(ConfigClusters(4)).Registry() // the shape's layout
	machines := []*Machine{MustNew(ConfigClusters(4)), MustNew(ConfigClusters(4)), MustNew(ConfigClusters(4))}
	var reg *telemetry.Registry
	if n := allocated(func() { reg, machines = machines[0].Registry(), machines[1:] }); n > 40<<10 {
		t.Errorf("a second 4-cluster machine's registry allocated %d bytes, want at most 40 KB", n)
	}
	// The runtime rounds an object over 32 KB up to whole 8 KB pages:
	// this machine's 40,462-byte text takes 40,960.
	var text string
	if n := allocated(func() { text = reg.Fingerprint() }); float64(n) > 1.1*float64(len(text)) {
		t.Errorf("a fingerprint of %d bytes allocated %d bytes, want at most 1.1x its text", len(text), n)
	}
	if n := testing.AllocsPerRun(3, func() { reg.Fingerprint() }); n != 1 {
		t.Errorf("a fingerprint made %v allocations, want one: its text", n)
	}
	fwd, err := network.New("forward", 8, 8, network.DefaultQueueWords)
	if err != nil {
		t.Fatal(err)
	}
	slots := (8 + 1 + 1 + 4) * prefetch.BufferWords // value, full, got, tag
	if n := allocated(func() { pfuSink = prefetch.New(fwd, 0); pfuSink.Arm(32, 1) }); n > uint64(slots)/4 {
		t.Errorf("a PFU armed with a 32-word strip allocated %d bytes; its %d-slot buffer takes %d", n, prefetch.BufferWords, slots)
	}
}
