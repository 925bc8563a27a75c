package cache

import (
	"testing"

	"repro/internal/sim"
)

func small() Config {
	return Config{
		Words:                256, // 64 lines
		LineWords:            4,
		Ways:                 2,
		Banks:                4,
		BankAccessesPerCycle: 2,
		MissesPerCE:          2,
		FillLatency:          6,
		MemWordsPerCycle:     4,
		CEs:                  8,
	}
}

// access retries until accepted, stepping time, and returns (readyAt,
// acceptCycle).
func access(t *testing.T, c *Cache, now *sim.Cycle, ce int, addr uint64, write bool) sim.Cycle {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if ready, ok := c.Access(*now, ce, addr, write); ok {
			return ready
		}
		*now++
	}
	t.Fatal("access never accepted")
	return 0
}

func TestDefaults(t *testing.T) {
	c := New(Config{})
	d := c.Config()
	if d.Words != 64<<10 || d.LineWords != 4 || d.Banks != 4 || d.MissesPerCE != 2 || d.CEs != 8 {
		t.Fatalf("defaults not applied: %+v", d)
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(small())
	now := sim.Cycle(0)
	r1 := access(t, c, &now, 0, 100, false)
	if r1 <= now+1 {
		t.Fatalf("miss ready at %d (now %d): no fill latency", r1, now)
	}
	if c.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", c.Misses)
	}
	// Same line after the fill completes: a hit, ready next cycle.
	now = r1
	r2 := access(t, c, &now, 0, 101, false)
	if r2 != now+1 {
		t.Fatalf("hit ready at %d, want %d", r2, now+1)
	}
	if c.Hits != 1 {
		t.Fatalf("Hits = %d, want 1", c.Hits)
	}
	if !c.Contains(100) {
		t.Fatal("line not resident after fill")
	}
}

func TestMissLatency(t *testing.T) {
	c := New(small())
	now := sim.Cycle(0)
	r := access(t, c, &now, 0, 0, false)
	// FillLatency 6 + 1 cycle transfer (4 words at 4/cycle) + 1.
	if want := now + 6 + 1 + 1; r != want {
		t.Fatalf("cold miss ready at %d, want %d", r, want)
	}
}

func TestLockupFreeLimit(t *testing.T) {
	c := New(small())
	now := sim.Cycle(0)
	// Two misses accepted, third refused while both outstanding.
	if _, ok := c.Access(now, 0, 0, false); !ok {
		t.Fatal("first miss refused")
	}
	if _, ok := c.Access(now, 0, 64, false); !ok {
		t.Fatal("second miss refused")
	}
	if _, ok := c.Access(now, 0, 128, false); ok {
		t.Fatal("third concurrent miss accepted; limit is 2")
	}
	if c.MSHRStalls == 0 {
		t.Fatal("MSHR stall not counted")
	}
	if got := c.OutstandingMisses(0, now); got != 2 {
		t.Fatalf("OutstandingMisses = %d, want 2", got)
	}
	// A different CE is not blocked (address on another bank and line).
	if _, ok := c.Access(now, 1, 129, false); !ok {
		t.Fatal("other CE blocked by first CE's misses")
	}
	// After completion the limit resets.
	now += 20
	if _, ok := c.Access(now, 0, 192, false); !ok {
		t.Fatal("miss refused after previous fills completed")
	}
}

func TestBankPorts(t *testing.T) {
	c := New(small())
	now := sim.Cycle(50)
	// Warm a line so accesses hit.
	access(t, c, &now, 0, 0, false)
	now += 20
	// Words 0 and 4 share bank 0 (addr % 4); the bank has 2 ports.
	access(t, c, &now, 0, 0, false) // warm again (hit)
	okCount := 0
	for ce := 0; ce < 4; ce++ {
		if _, ok := c.Access(now, ce, 0, false); ok {
			okCount++
		}
	}
	if okCount > 2 {
		t.Fatalf("%d same-bank accesses accepted in one cycle, want <= 2", okCount)
	}
	if c.BankStalls == 0 {
		t.Fatal("bank stall not counted")
	}
	// Different banks all proceed.
	now += 10
	okCount = 0
	for ce := 0; ce < 4; ce++ {
		if _, ok := c.Access(now, ce, uint64(ce), false); ok {
			okCount++
		}
	}
	if okCount != 4 {
		t.Fatalf("distinct-bank accesses accepted = %d, want 4", okCount)
	}
}

func TestMissMerging(t *testing.T) {
	c := New(small())
	now := sim.Cycle(0)
	r1, ok := c.Access(now, 0, 8, false)
	if !ok {
		t.Fatal("miss refused")
	}
	// Another CE touches the same line while in flight: merged, no second
	// memory transfer, ready no later than the first fill + 1.
	r2, ok := c.Access(now+1, 1, 9, false)
	if !ok {
		t.Fatal("merged access refused")
	}
	if c.Misses != 1 {
		t.Fatalf("Misses = %d after merge, want 1", c.Misses)
	}
	if r2 > r1+1 {
		t.Fatalf("merged ready %d much later than fill %d", r2, r1)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	cfg := small()
	cfg.Words = 32 // 8 lines, 2-way, 4 sets: easy to evict
	c := New(cfg)
	now := sim.Cycle(0)
	// Fill both ways of set 0 with dirty lines (write misses install
	// immediately), then a third write to the set must evict a dirty
	// victim and charge a write-back.
	access(t, c, &now, 0, 0, true) // line 0, set 0
	now += 20
	access(t, c, &now, 0, 16, true) // line 4, set 0 (4 sets)
	now += 20
	access(t, c, &now, 0, 32, true) // line 8, set 0: evicts a dirty way
	if c.Writebacks == 0 {
		t.Fatal("dirty eviction produced no write-back")
	}
}

func TestStreamBehaviour(t *testing.T) {
	// A stride-1 stream misses once per line (4 words).
	c := New(Config{Words: 4096, CEs: 1})
	now := sim.Cycle(0)
	for a := uint64(0); a < 256; a++ {
		r := access(t, c, &now, 0, a, false)
		now = r
	}
	if c.Misses != 64 {
		t.Fatalf("stride-1 stream of 256 words: %d misses, want 64 (one per line)", c.Misses)
	}
	if c.Hits != 192 {
		t.Fatalf("hits = %d, want 192", c.Hits)
	}
	// Re-stream: all hits now.
	m := c.Misses
	for a := uint64(0); a < 256; a++ {
		r := access(t, c, &now, 0, a, false)
		now = r
	}
	if c.Misses != m {
		t.Fatalf("warm re-stream missed %d times", c.Misses-m)
	}
}

// TestCachedStreamRate: a warm stream sustains ~1 word/cycle — the
// cache-bandwidth property behind Table 1's GM/cache column.
func TestCachedStreamRate(t *testing.T) {
	c := New(Config{Words: 4096, CEs: 1})
	now := sim.Cycle(0)
	for a := uint64(0); a < 512; a++ { // warm
		now = access(t, c, &now, 0, a, false)
	}
	start := now
	for a := uint64(0); a < 512; a++ {
		now = access(t, c, &now, 0, a, false)
	}
	rate := float64(512) / float64(now-start)
	if rate < 0.9 {
		t.Fatalf("warm stream rate = %.2f words/cycle, want ~1", rate)
	}
}

// TestColdStreamMemoryBound: a cold stream is bounded by cluster-memory
// bandwidth (4 words/cycle aggregate), i.e. slower than the warm stream.
func TestColdStreamMemoryBound(t *testing.T) {
	cfg := Config{Words: 1 << 14, CEs: 8}
	c := New(cfg)
	now := sim.Cycle(0)
	start := now
	// 8 CEs each stream 128 disjoint words, interleaved round-robin.
	idx := make([]uint64, 8)
	doneWords := 0
	for doneWords < 8*128 {
		progressed := false
		for ce := 0; ce < 8; ce++ {
			if idx[ce] >= 128 {
				continue
			}
			addr := uint64(ce*2048) + idx[ce]
			if ready, ok := c.Access(now, ce, addr, false); ok {
				_ = ready
				idx[ce]++
				doneWords++
				progressed = true
			}
		}
		now++
		_ = progressed
	}
	elapsed := float64(now - start)
	rate := float64(8*128) / elapsed
	if rate > 4.5 {
		t.Fatalf("cold aggregate rate %.2f words/cycle exceeds cluster-memory bandwidth ~4", rate)
	}
}

func TestFlush(t *testing.T) {
	c := New(small())
	now := sim.Cycle(0)
	access(t, c, &now, 0, 0, true)
	now += 20
	access(t, c, &now, 0, 0, false)
	if !c.Contains(0) {
		t.Fatal("line absent before flush")
	}
	wb := c.Writebacks
	c.Flush(now)
	if c.Contains(0) {
		t.Fatal("line resident after flush")
	}
	if c.Writebacks != wb+1 {
		t.Fatalf("flush wrote back %d lines, want 1", c.Writebacks-wb)
	}
}

func TestBadCEPanics(t *testing.T) {
	c := New(small())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range CE did not panic")
		}
	}()
	c.Access(0, 99, 0, false)
}

// TestReplacementOrder pins the victim choice: an invalid way first,
// else the way with the lowest LRU stamp, the lower way on a tie. An
// install stamps its line 0, so a line installed and not yet hit is
// the next victim even though it is the newest.
func TestReplacementOrder(t *testing.T) {
	cfg := small()
	cfg.Words = 32 // 4 sets of 2 ways; lines 0, 4, 8, 12 share set 0
	c := New(cfg)
	now := sim.Cycle(0)
	touch := func(addr uint64) {
		access(t, c, &now, 0, addr, true)
		now += 20
	}
	resident := func(want ...uint64) {
		t.Helper()
		for _, a := range []uint64{0, 16, 32, 48} {
			in := false
			for _, w := range want {
				in = in || w == a
			}
			if c.Contains(a) != in {
				t.Fatalf("Contains(%d) = %v, want resident %v", a, c.Contains(a), want)
			}
		}
	}
	touch(0)  // way 0: invalid ways fill first
	touch(16) // way 1
	resident(0, 16)
	touch(32) // both stamped 0: the tie evicts way 0
	resident(16, 32)
	touch(32) // hits stamp way 0, then way 1 later
	touch(16)
	touch(48) // way 0 holds the lower stamp
	resident(16, 48)
	touch(0) // 48 was stamped 0 by its install, 16 by a hit
	resident(16, 0)
}

// TestTagBeyondFlagBitsPanics: a tag must fit below the line's flag
// bits; one that would reach them panics instead of being truncated
// into another line's tag.
func TestTagBeyondFlagBitsPanics(t *testing.T) {
	c := New(Config{Words: 2, LineWords: 1, Ways: 2}) // one set: tag = address
	if _, ok := c.Access(0, 0, maxTag, true); !ok || !c.Contains(maxTag) {
		t.Fatal("the largest tag was not installed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a tag reaching the flag bits did not panic")
		}
	}()
	c.Access(1, 0, maxTag+1, false)
}
