// Package cache models the Alliant FX/8 shared cluster cache and the
// cluster memory behind it.
//
// Each cluster's eight CEs share a 512 KB, physically addressed,
// 4-way-interleaved cache with 32-byte lines. The cache is write-back and
// lockup-free, allowing each CE two outstanding misses; writes do not
// stall a CE. Cache bandwidth is eight 64-bit words per instruction cycle
// (one word per CE per cycle), sufficient to feed one input stream of a
// vector instruction in every processor; cluster-memory bandwidth is half
// of that (192 MB/s versus the cache's 384 MB/s per cluster).
//
// The cache is a timing device: functional data lives in the cluster's
// word array, while the tag array here determines hit/miss behaviour and
// the cluster-memory bandwidth limiter determines fill and write-back
// cost.
package cache

import (
	"fmt"

	"repro/internal/sim"
)

// Config describes a cluster cache.
type Config struct {
	// Words is the cache capacity in 64-bit words (default 64 K words =
	// 512 KB).
	Words int
	// LineWords is the line size in words (default 4 = 32 bytes).
	LineWords int
	// Ways is the set associativity (default 2).
	Ways int
	// Banks is the interleaving factor (default 4).
	Banks int
	// BankAccessesPerCycle is each bank's port count (default 2, giving
	// the paper's 8 words/cycle aggregate with 4 banks).
	BankAccessesPerCycle int
	// MissesPerCE is the lockup-free miss limit per CE (default 2).
	MissesPerCE int
	// FillLatency is the cluster-memory access latency for a line fill,
	// in cycles (default 6).
	FillLatency sim.Cycle
	// MemWordsPerCycle is the cluster-memory bandwidth (default 4,
	// i.e. 192 MB/s, half the cache bandwidth).
	MemWordsPerCycle int
	// CEs is the number of processors sharing the cache (default 8).
	CEs int
}

// Default returns the as-built Alliant cluster cache configuration.
func Default() Config {
	return Config{
		Words:                64 << 10,
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

// line is one tag-store entry: the line's tag, with its valid and dirty
// flags in the top two bits, and its LRU stamp (0 when installed, the
// cache's access clock at its latest hit).
type line struct {
	tag uint64
	lru uint64
}

const (
	lineValid = 1 << 63
	lineDirty = 1 << 62
	// maxTag is the largest tag a line can hold below its flag bits.
	maxTag = lineDirty - 1
)

// Cache is one cluster's shared cache plus its cluster-memory bandwidth
// model. It is not a sim.Component: it is driven synchronously by CE
// accesses and keeps its own busy bookkeeping against the engine clock.
type Cache struct {
	cfg Config
	// lines is the tag store, set-major: set s's ways are
	// lines[s*Ways : (s+1)*Ways]. It is allocated on the first access,
	// since most workloads never touch cluster memory.
	lines []line
	nset  uint64

	// Bank port accounting for the current cycle.
	bankCycle sim.Cycle
	bankUsed  []int

	// Per-bank fault busy windows: a bank refuses all ports until its
	// window expires (injected via FaultBankBusy). Recovery is free:
	// every caller of Access already retries a refused access next
	// cycle, so a busy window only defers service — no state is lost.
	bankBusyUntil []sim.Cycle

	// Per-CE outstanding fill completion times (lockup-free misses).
	outstanding [][]sim.Cycle

	// In-flight fills by line address, so concurrent misses to one line
	// merge instead of double-filling.
	fills map[uint64]sim.Cycle

	// Cluster-memory bandwidth limiter.
	memFree sim.Cycle

	lruClock uint64

	// Counters.
	Hits            int64
	Misses          int64
	Writebacks      int64
	BankStalls      int64
	MSHRStalls      int64
	FaultBankBusies int64 // injected bank busy windows
	FaultBankStalls int64 // accesses refused because a bank was fault-busy
}

// New builds a cache; zero fields of cfg take defaults.
func New(cfg Config) *Cache {
	d := Default()
	if cfg.Words <= 0 {
		cfg.Words = d.Words
	}
	if cfg.LineWords <= 0 {
		cfg.LineWords = d.LineWords
	}
	if cfg.Ways <= 0 {
		cfg.Ways = d.Ways
	}
	if cfg.Banks <= 0 {
		cfg.Banks = d.Banks
	}
	if cfg.BankAccessesPerCycle <= 0 {
		cfg.BankAccessesPerCycle = d.BankAccessesPerCycle
	}
	if cfg.MissesPerCE <= 0 {
		cfg.MissesPerCE = d.MissesPerCE
	}
	if cfg.FillLatency <= 0 {
		cfg.FillLatency = d.FillLatency
	}
	if cfg.MemWordsPerCycle <= 0 {
		cfg.MemWordsPerCycle = d.MemWordsPerCycle
	}
	if cfg.CEs <= 0 {
		cfg.CEs = d.CEs
	}
	nlines := cfg.Words / cfg.LineWords
	nsets := nlines / cfg.Ways
	if nsets == 0 {
		panic(fmt.Sprintf("cache: configuration too small (%d words)", cfg.Words))
	}
	c := &Cache{
		cfg:           cfg,
		nset:          uint64(nsets),
		bankUsed:      make([]int, cfg.Banks),
		bankBusyUntil: make([]sim.Cycle, cfg.Banks),
		outstanding:   make([][]sim.Cycle, cfg.CEs),
		fills:         map[uint64]sim.Cycle{},
	}
	return c
}

// Config returns the configuration the cache was built with (with
// defaults applied).
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) lineAddr(addr uint64) uint64 { return addr / uint64(c.cfg.LineWords) }

// set returns the ways of the set holding line address la, and la's tag,
// allocating the tag store on the cache's first access. A tag that would
// reach the flag bits panics rather than alias another line.
func (c *Cache) set(la uint64) ([]line, uint64) {
	tag := la / c.nset
	if tag > maxTag {
		panic(fmt.Sprintf("cache: line address %d beyond the tag store's reach", la))
	}
	w := uint64(c.cfg.Ways)
	if c.lines == nil {
		c.lines = make([]line, c.nset*w)
	}
	s := la % c.nset * w
	return c.lines[s : s+w], tag
}

// bankFor maps a word address to its bank (word interleaving).
func (c *Cache) bankFor(addr uint64) int { return int(addr) % c.cfg.Banks }

// chargeBank consumes one bank port in the cycle now; reports false when
// the bank's ports are exhausted this cycle.
func (c *Cache) chargeBank(now sim.Cycle, addr uint64) bool {
	if now != c.bankCycle {
		c.bankCycle = now
		for i := range c.bankUsed {
			c.bankUsed[i] = 0
		}
	}
	b := c.bankFor(addr)
	if now < c.bankBusyUntil[b] {
		c.BankStalls++
		c.FaultBankStalls++
		return false
	}
	if c.bankUsed[b] >= c.cfg.BankAccessesPerCycle {
		c.BankStalls++
		return false
	}
	c.bankUsed[b]++
	return true
}

// Banks reports the interleaving factor, for fault-target selection.
func (c *Cache) Banks() int { return c.cfg.Banks }

// FaultBankBusy marks bank busy for window cycles starting at now: all
// of its ports refuse service until the window expires (the injected
// analogue of an ECC scrub or maintenance cycle steal monopolizing the
// bank). Overlapping injections extend the window, never shrink it.
func (c *Cache) FaultBankBusy(now sim.Cycle, bank int, window sim.Cycle) {
	if bank < 0 || bank >= c.cfg.Banks {
		panic(fmt.Sprintf("cache: fault on bank %d of %d", bank, c.cfg.Banks))
	}
	if until := now + window; until > c.bankBusyUntil[bank] {
		c.bankBusyUntil[bank] = until
	}
	c.FaultBankBusies++
}

// pruneOutstanding drops completed fills from a CE's miss list.
func (c *Cache) pruneOutstanding(ce int, now sim.Cycle) {
	out := c.outstanding[ce][:0]
	for _, t := range c.outstanding[ce] {
		if t > now {
			out = append(out, t)
		}
	}
	c.outstanding[ce] = out
}

// lookup finds the way holding the line, or -1.
func (c *Cache) lookup(set []line, tag uint64) int {
	for w := range set {
		if set[w].tag&^lineDirty == tag|lineValid {
			return w
		}
	}
	return -1
}

// victim picks the way a new line replaces: the first invalid way, else
// the least recently used, the lower way on a tie.
func (c *Cache) victim(set []line) int {
	v, best := 0, ^uint64(0)
	for w := range set {
		if set[w].tag&lineValid == 0 {
			return w
		}
		if set[w].lru < best {
			v, best = w, set[w].lru
		}
	}
	return v
}

// install replaces set's victim with a valid line holding tag, charging
// a write-back when the victim is dirty.
func (c *Cache) install(now sim.Cycle, set []line, tag uint64, dirty bool) {
	w := c.victim(set)
	if set[w].tag&(lineValid|lineDirty) == lineValid|lineDirty {
		c.writeback(now)
	}
	set[w] = line{tag: tag | lineValid}
	if dirty {
		set[w].tag |= lineDirty
	}
}

// Access performs one word access by CE ce at word address addr.
// It returns the cycle at which the datum is usable and accepted=true, or
// accepted=false when a structural hazard (bank port or miss limit)
// forces the CE to retry next cycle. Writes are accepted on the same
// terms but the returned ready time may be ignored by the caller, because
// writes do not stall a CE.
func (c *Cache) Access(now sim.Cycle, ce int, addr uint64, write bool) (ready sim.Cycle, accepted bool) {
	if ce < 0 || ce >= c.cfg.CEs {
		panic(fmt.Sprintf("cache: CE index %d out of range", ce))
	}
	la := c.lineAddr(addr)
	set, tag := c.set(la)

	// Completed in-flight fill? Install it.
	if t, ok := c.fills[la]; ok && t <= now {
		c.install(now, set, tag, false)
		delete(c.fills, la)
	}

	if w := c.lookup(set, tag); w >= 0 {
		if !c.chargeBank(now, addr) {
			return 0, false
		}
		c.lruClock++
		set[w].lru = c.lruClock
		if write {
			set[w].tag |= lineDirty
		}
		c.Hits++
		return now + 1, true
	}

	// Miss. Merge with an in-flight fill of the same line if present.
	if t, ok := c.fills[la]; ok {
		if !c.chargeBank(now, addr) {
			return 0, false
		}
		c.Hits++ // merged: no new memory traffic
		return t + 1, true
	}

	c.pruneOutstanding(ce, now)
	if len(c.outstanding[ce]) >= c.cfg.MissesPerCE {
		c.MSHRStalls++
		return 0, false
	}
	if !c.chargeBank(now, addr) {
		return 0, false
	}
	c.Misses++
	// Cluster-memory transfer: LineWords at MemWordsPerCycle, after the
	// memory is free, plus the access latency.
	start := now
	if c.memFree > start {
		start = c.memFree
	}
	transfer := sim.Cycle((c.cfg.LineWords + c.cfg.MemWordsPerCycle - 1) / c.cfg.MemWordsPerCycle)
	c.memFree = start + transfer
	done := start + c.cfg.FillLatency + transfer
	c.fills[la] = done
	c.outstanding[ce] = append(c.outstanding[ce], done)
	if write {
		// Write-allocate: the line will be dirty once installed. Record
		// by installing dirty at completion; emulate by marking through
		// the fills map on installation. Simplest: install immediately
		// as a fill that arrives dirty.
		// We mark dirtiness when the line is installed in the next
		// access; to keep bookkeeping simple, install now and rely on
		// the fill time for availability.
		c.install(now, set, tag, true)
		delete(c.fills, la)
	}
	return done + 1, true
}

// writeback charges cluster-memory bandwidth for casting out a dirty line.
func (c *Cache) writeback(now sim.Cycle) {
	start := now
	if c.memFree > start {
		start = c.memFree
	}
	transfer := sim.Cycle((c.cfg.LineWords + c.cfg.MemWordsPerCycle - 1) / c.cfg.MemWordsPerCycle)
	c.memFree = start + transfer
	c.Writebacks++
}

// Quiet reports whether the cache is quiescent at cycle now: no fill in
// flight and the cluster-memory port free. The cache is not a
// sim.Component — every cost is charged synchronously inside Access, so
// it needs no tick to make progress and is quiescent by construction
// whenever its CEs are; this predicate exists for introspection and for
// asserting that property in tests.
func (c *Cache) Quiet(now sim.Cycle) bool {
	if c.memFree > now {
		return false
	}
	for _, t := range c.fills {
		if t > now {
			return false
		}
	}
	return true
}

// OutstandingMisses reports CE ce's in-flight fill count at cycle now.
func (c *Cache) OutstandingMisses(ce int, now sim.Cycle) int {
	c.pruneOutstanding(ce, now)
	return len(c.outstanding[ce])
}

// Contains reports whether the line holding addr is resident (for tests).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.set(c.lineAddr(addr))
	return c.lookup(set, tag) >= 0
}

// Flush invalidates every line, charging write-backs for dirty ones.
func (c *Cache) Flush(now sim.Cycle) {
	for _, l := range c.lines {
		if l.tag&(lineValid|lineDirty) == lineValid|lineDirty {
			c.writeback(now)
		}
	}
	clear(c.lines)
	c.fills = map[uint64]sim.Cycle{}
}
