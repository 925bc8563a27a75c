// Package ce models the Alliant FX/8 computational element (CE): a
// pipelined scalar processor with a vector unit, as configured in Cedar.
//
// The model captures the properties the paper's measurements hinge on:
//
//   - a 170 ns instruction cycle (the simulation's base clock);
//   - vector instructions in register-memory format with one memory
//     operand stream, consuming or producing up to one 64-bit word per
//     cycle with chained arithmetic — at 2 chained flops per element this
//     yields the CE's 11.8 MFLOPS peak;
//   - vector startup cost, which reduces the 376 MFLOPS absolute machine
//     peak to the paper's 274 MFLOPS effective peak for 32-word strips;
//   - a limit of two outstanding memory requests per CE (the property
//     that caps non-prefetched global access at 2 words per 13 cycles,
//     Table 1's GM/no-pref row);
//   - posted writes (writes do not stall a CE);
//   - access to the per-CE prefetch unit and to the global
//     synchronization instructions.
package ce

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/network"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/xylem"
)

// IOPath is the CE's route to the operating system's I/O service: an
// isa.IO operation is submitted here, the issuing program parks on the
// outstanding transfer (the CE reports no next event), and the
// completion callback wakes the CE with the transfer's completion
// handle. The concrete path — Xylem's park table in front of the
// cluster's interactive processor — is wired by the machine assembly so
// this package needs no cluster dependency.
type IOPath interface {
	SubmitIO(now sim.Cycle, words int64, formatted bool, label string, onDone func(xylem.IOCompletion))
}

// The CE's as-built timing, from Section 2 of the paper.
const (
	// VectorStartup is the pipeline fill cost charged at the beginning
	// of every vector operation: with 32-word strips it gives
	// 32/(32+12) = 73% of absolute peak, the paper's 274 of 376 MFLOPS
	// effective peak.
	VectorStartup sim.Cycle = 12
	// XferCycles is the CE-side transfer time between the network or
	// prefetch buffer and the vector unit: with the 8-cycle
	// network+memory minimum it forms the paper's 13-cycle effective
	// global latency.
	XferCycles sim.Cycle = 5
	// SyncExtra is the CE-side cost of initiating a memory-mapped
	// synchronization instruction beyond the network round trip.
	SyncExtra sim.Cycle = 2
)

// Config holds the CE parameters a machine varies.
type Config struct {
	// MaxOutstanding is the lockup-free miss limit (default 2).
	MaxOutstanding int
	// ReadTimeout, when positive, enables request-layer recovery for
	// global reads — scalar accesses and direct (non-prefetched) vector
	// stream elements alike: a reply that has not arrived after
	// ReadTimeout cycles is re-requested under a fresh tag, with
	// exponential backoff and at most MaxRetries reissues before the CE
	// gives up and reports the wedge via FaultReason. Vector reissue is
	// head-only, like the PFU's: each inflight entry carries its own
	// deadline, but only the in-order consumption head is reissued (a
	// younger entry's deadline matters only once it becomes the head).
	// Sync operations are never retried: the Test-And-Operate
	// read-modify-write at the module is not idempotent, so a duplicate
	// could double-apply — sync tags live in their own namespace
	// (SyncTagBase) precisely so the fault injector can exclude them
	// from drops by range. The machine sets it, and MaxRetries, to the
	// fault package's constants when faults are armed, and leaves both
	// zero otherwise.
	ReadTimeout sim.Cycle
	// MaxRetries bounds the reissues per read when ReadTimeout is set.
	MaxRetries int
}

// DefaultConfig returns the as-built CE parameters.
func DefaultConfig() Config { return Config{MaxOutstanding: 2} }

// TagBase namespaces direct CE request tags above the prefetch unit's
// epoch-qualified slot tags [0, prefetch.TagSpan). SyncTagBase opens a
// third namespace above
// it for synchronization requests: gmem answers a Sync with an ordinary
// network.Reply carrying the request's tag, so only the tag range tells
// a sync reply from a read reply — and the fault injector must never
// drop a sync reply (Test-And-Operate is not idempotent; a reissue
// could double-apply). The injector's CEDrop predicate therefore
// accepts exactly [TagBase, SyncTagBase).
const (
	TagBase     uint64 = 1 << 20
	SyncTagBase uint64 = 1 << 28
)

// inflightReq is one outstanding memory request, consumed in issue
// order: an element of a vector stream, or the single entry of a global
// scalar read or sync, whose reply's value and status it keeps.
// Global-space entries carry their word address and, when request-layer
// recovery is enabled, a per-entry reissue deadline; cluster-space
// entries are created already arrived (tag 0) and never retried.
type inflightReq struct {
	tag      uint64
	addr     uint64
	arrived  bool
	ok       bool
	usableAt sim.Cycle
	v        int64
	retries  int
	retryAt  sim.Cycle
}

// staleTagCap bounds the ring of forgotten request tags kept so a late
// reply to a reissued read is recognized and swallowed instead of
// panicking as unmatched. Under sustained drop faults a reply can still
// outlive the ring; Deliver swallows those into StaleReplies.
const staleTagCap = 32

// parkMark is one pending reclassification of elided cycles: from cycle
// at (inclusive) until the next tick, skipped spans charge bucket b.
type parkMark struct {
	at sim.Cycle
	b  isa.Bucket
}

// lostReq records the pending request of an exhausted retry, for the
// FaultReason diagnosis. what names the request class ("scalar read" or
// "vector element read"), from the kind of the operation that issued it.
type lostReq struct {
	what    string
	tag     uint64
	addr    uint64
	retries int
}

// CE is one computational element. It is a sim.Component; replies from
// the reverse network reach it through Deliver.
type CE struct {
	cfg Config

	// ID is the machine-wide CE index; Port its network port; Local its
	// index within the cluster (cache port).
	ID    int
	Port  int
	Local int

	fwd   *network.Network
	pool  network.Pool // free packets: refused offers and read replies
	cache *cache.Cache
	pfu   *prefetch.PFU
	route func(addr uint64) int
	waker sim.Waker
	io    IOPath

	prog isa.Program
	cur  *isa.Op

	// Generic op state.
	finishAt sim.Cycle

	// Vector state.
	vIssued    int
	vDone      int
	startupEnd sim.Cycle

	// Outstanding requests: a vector stream's elements, or a global
	// scalar read's or sync's single entry.
	inflight    []inflightReq
	nextTag     uint64
	nextSyncTag uint64

	// Request-layer recovery state (active only with cfg.ReadTimeout set).
	stale []uint64
	lost  *lostReq

	// I/O state: ioDone flips when the completion callback fires and
	// ioComp carries the handle the next tick consumes.
	ioDone bool
	ioComp xylem.IOCompletion

	// checkStopped marks a CE halted by an injected check-stop. The halt
	// takes effect at the next instruction boundary (the operation in
	// flight drains normally, so no network tags are orphaned); a held
	// program is surrendered through OnSurrender for gang rescheduling.
	// Repair clears the stop.
	checkStopped bool

	// OnSurrender, if non-nil, receives the program a check-stopped CE
	// gives up, for Xylem-level rescheduling onto a healthy CE in the
	// same cluster. When nil the CE simply freezes until Repair and then
	// resumes its program.
	OnSurrender func(p isa.Program)

	// Acct is the cycle-accounting accumulator (DESIGN.md §4.8): every
	// cycle of the CE's existence is charged to exactly one isa.Bucket,
	// by Tick for executed cycles and by SkipCycles for elided spans, so
	// bucket sums always equal elapsed cycles in every engine mode.
	Acct isa.Acct

	// parkAs classifies the cycles the engine may elide before the next
	// tick, recorded from post-tick state: a skipped span's bucket is
	// decided by the state the CE was left in at its last tick, not by
	// the state at flush time — external stimulus between ticks either
	// wakes the CE into a tick (a program assignment, an I/O
	// completion), or splits the span with a parkMark (a check-stop or
	// repair landing on a dormant CE), exactly as the naive engine's
	// per-cycle ticks would classify it.
	parkAs isa.Bucket

	// parkMarks are reclassifications pending since the last tick: from
	// mark.at onward, elided cycles charge mark.b. A check-stop or
	// repair can land on a dormant CE without provoking a tick (the CE
	// still reports no next event), and a vector load can go from its
	// startup fill straight into a parked operand wait, so the skip span
	// that is eventually flushed covers cycles both before and after the
	// change; the marks split it at the exact cycles the naive engine's
	// ticks would have switched buckets.
	parkMarks []parkMark

	// Counters.
	Flops            int64
	OpsDone          int64
	StallMem         int64 // cycles waiting on data
	StallNet         int64 // cycles the network refused an injection
	IdleCycles       int64
	Retries          int64 // scalar reads reissued after a timeout
	LateReplies      int64 // replies to forgotten (reissued) tags, swallowed
	StaleReplies     int64 // replies whose tag outlived the stale ring, swallowed
	RetriesExhausted int64 // reads abandoned with retries exhausted
	CheckStops       int64 // check-stop faults applied
	Surrendered      int64 // programs given up to the rescheduler
	IORequests       int64 // isa.IO operations issued
	IOWaitCycles     int64 // cycles parked on outstanding transfers
	IOWords          int64 // words moved by completed transfers
	FinishedAt       sim.Cycle
	everStarted      bool
}

// New builds a CE. route maps a global word address to its forward-network
// port (the memory interleaving function).
func New(cfg Config, id, port, local int, fwd *network.Network, ch *cache.Cache, u *prefetch.PFU, route func(addr uint64) int) *CE {
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 2
	}
	return &CE{
		cfg:         cfg,
		ID:          id,
		Port:        port,
		Local:       local,
		fwd:         fwd,
		cache:       ch,
		pfu:         u,
		route:       route,
		nextTag:     TagBase,
		nextSyncTag: SyncTagBase,
		parkAs:      isa.AcctIdle, // pre-first-tick spans are idle
	}
}

// PFU returns the CE's prefetch unit.
func (c *CE) PFU() *prefetch.PFU { return c.pfu }

// SetIOPath attaches the CE's route to the I/O service. A CE with no
// path panics on the first isa.IO operation (bare test rigs that never
// issue I/O need not wire one).
func (c *CE) SetIOPath(p IOPath) { c.io = p }

// AttachWaker implements sim.WakeSink: the engine hands the CE its own
// Handle at registration. The CE reports sim.Never when it has no
// program and no operation in flight, while an I/O operation is parked,
// while a scalar read or sync awaits its reply, and while a vector load
// waits for its head element's reply or for its head prefetch-buffer
// slot to fill, so the stimuli that must wake it are the
// program-assignment entry points, the I/O completion callback, and
// Deliver of the awaited reply, of the head element's reply, or of the
// word that fills the head slot.
func (c *CE) AttachWaker(w sim.Waker) { c.waker = w }

func (c *CE) wake() {
	if c.waker != nil {
		c.waker.Wake()
	}
}

// SetProgram assigns a program; the CE begins executing it on its next
// tick. Assigning over a running program panics — the concurrency
// control layer must only dispatch to idle CEs.
func (c *CE) SetProgram(p isa.Program) {
	if c.prog != nil || c.cur != nil {
		panic(fmt.Sprintf("ce %d: SetProgram while busy", c.ID))
	}
	c.prog = p
	c.everStarted = true
	c.wake()
}

// ForceProgram replaces the CE's program between operations, discarding
// any unexecuted remainder. This is the concurrent-start semantics: the
// broadcast program counter ends the initiating CE's current stream. It
// panics if an operation is still in flight.
func (c *CE) ForceProgram(p isa.Program) {
	if c.cur != nil {
		panic(fmt.Sprintf("ce %d: ForceProgram with an operation in flight", c.ID))
	}
	c.prog = p
	c.everStarted = true
	c.wake()
}

// Idle reports whether the CE has no program and no operation in flight.
// A check-stopped CE is not idle: dispatchers must not target it and the
// machine is not quiescent until it is repaired.
func (c *CE) Idle() bool { return !c.checkStopped && c.prog == nil && c.cur == nil }

// CheckStop halts the CE at its next instruction boundary: the operation
// in flight drains normally (so no reply tags are orphaned in the
// networks), then a held program is surrendered via OnSurrender and the
// CE freezes until Repair. A check-stop on an already-stopped CE is a
// no-op.
func (c *CE) CheckStop(now sim.Cycle) {
	if c.checkStopped {
		return
	}
	c.checkStopped = true
	c.CheckStops++
	if c.cur == nil {
		// At an instruction boundary the halt is effective immediately:
		// cycles from now on are check-stop, even if the CE is dormant
		// and never ticks before the repair. With an op in flight the
		// drain keeps its own classification until the op retires.
		c.markPark(now, isa.AcctCheckStop)
	}
	c.wake()
}

// Repair clears a check-stop: the CE becomes dispatchable again (and, if
// it still holds a program because no rescheduler claimed it, resumes).
func (c *CE) Repair(now sim.Cycle) {
	if !c.checkStopped {
		return
	}
	c.checkStopped = false
	if c.cur == nil {
		c.markPark(now, isa.AcctIdle)
	}
	c.wake()
}

// markPark records that elided cycles from now on charge bucket b; the
// next tick supersedes it (post-tick state reclassifies directly).
func (c *CE) markPark(now sim.Cycle, b isa.Bucket) {
	c.parkMarks = append(c.parkMarks, parkMark{at: now, b: b})
}

// CheckStopped reports whether the CE is halted by a check-stop.
func (c *CE) CheckStopped() bool { return c.checkStopped }

// NextEvent implements sim.IdleComponent: the earliest cycle at which
// ticking this CE could change observable state. Structural retries,
// stores and vector streams that can make progress, whose ticks decide
// per cycle between progress and a stall, tick every cycle; pure timer
// waits (compute spans, vector startup, posted-write and sync-extra
// completions) report their expiry. A scalar read or sync awaiting its
// reply only counts StallMem until Deliver wakes it, so it reports Never
// (a read with a reissue deadline reports the deadline) and SkipCycles
// credits the elided stalls. Once the reply is in, a read retires when
// it is usable and a sync starts its SyncExtra timer at its next tick.
// A vector load that can neither consume nor issue parks the same way
// (see vectorNextEvent).
func (c *CE) NextEvent(now sim.Cycle) sim.Cycle {
	if c.cur == nil {
		if c.prog != nil {
			return now
		}
		return sim.Never // woken externally by SetProgram/ForceProgram
	}
	switch c.cur.Kind {
	case isa.Compute:
		return c.finishAt
	case isa.Vector:
		if now < c.startupEnd {
			return c.startupEnd
		}
		return c.vectorNextEvent(now)
	case isa.Scalar, isa.Sync:
		switch {
		case c.finishAt >= 0:
			return c.finishAt
		case c.finishAt == -1:
			return now // structural retry: stall-counts every cycle
		}
		switch h := &c.inflight[0]; {
		case h.arrived && c.cur.Kind == isa.Sync:
			return now
		case h.arrived:
			return h.usableAt
		case c.cur.Kind == isa.Scalar && c.cfg.ReadTimeout > 0:
			return h.retryAt
		}
		return sim.Never // awaiting the reply: Deliver wakes the CE
	case isa.IO:
		if c.ioDone {
			return now
		}
		return sim.Never // parked: the completion callback wakes the CE
	default: // isa.Prefetch completes on its next tick
		return now
	}
}

// vectorNextEvent answers for a vector operation past its startup fill.
// A load that can neither consume nor issue only counts StallMem (and,
// prefetched, the PFU's spin) each cycle, so it parks:
//
//   - a direct stream with no request left to issue or no issue slot
//     free (MaxOutstanding requests in flight) waits for its head
//     element's reply, Never until Deliver of it wakes the CE, then until
//     the head's usableAt;
//   - a prefetched stream waits, Never, while its head buffer slot is
//     empty but its word is on its way (PFU.Pending), until Deliver of
//     that word wakes the CE.
//
// Everything else ticks every cycle: direct reads with a reissue
// deadline (the head's deadline and the retry's injection are decided
// per cycle), consumption of a masked-off word or past the armed block,
// an empty load (it retires at its first tick), and stores.
func (c *CE) vectorNextEvent(now sim.Cycle) sim.Cycle {
	op := c.cur
	if op.Write || op.N == 0 {
		return now
	}
	if op.UsePrefetch {
		if c.pfu.Pending() {
			return sim.Never
		}
		return now
	}
	if c.cfg.ReadTimeout > 0 || len(c.inflight) == 0 ||
		(c.vIssued < op.N && len(c.inflight) < c.cfg.MaxOutstanding) {
		return now
	}
	switch h := &c.inflight[0]; {
	case !h.arrived:
		return sim.Never
	case h.usableAt > now:
		return h.usableAt
	}
	return now
}

// SkipCycles implements sim.SkipAware: the engine never executed the
// cycles [from, to) for this CE. Three skippable states accrue counters
// per cycle: with no operation in flight the span is idle (a program
// assigned during it would have ended it at the CE's next tick slot); a
// scalar read or sync awaiting its reply stalls on memory (the reply's
// Deliver wakes the CE for the cycle after it lands, so every elided
// tick ran before it); and a parked vector load stalls on memory from
// the end of its startup fill, a prefetched one also spinning on the
// PFU's full/empty bit. Every other counting state pins NextEvent to
// now.
//
// Cycle accounting charges the span to the bucket recorded at the last
// tick (parkAs), split at any pending parkMark: skippable states — idle,
// check-stop freeze, compute spans, vector startup and operand waits,
// scalar/sync reply waits and completion timers, I/O parks — keep their
// classification constant until the next tick or the mark, so the whole
// span lands where the naive engine's per-cycle ticks would have put it.
func (c *CE) SkipCycles(from, to sim.Cycle) {
	switch {
	case c.cur == nil:
		c.IdleCycles += int64(to - from)
	case c.finishAt == -2 && (c.cur.Kind == isa.Scalar || c.cur.Kind == isa.Sync):
		c.StallMem += int64(to - from)
	case c.cur.Kind == isa.Vector:
		if n := int64(to - max(from, c.startupEnd)); n > 0 {
			c.StallMem += n
			if c.cur.UsePrefetch {
				c.pfu.Spin(n)
			}
		}
	}
	cursor, bucket := from, c.parkAs
	kept := 0
	for _, mk := range c.parkMarks {
		if mk.at >= to {
			// Applies to cycles this flush does not cover yet; keep it
			// for the next span.
			c.parkMarks[kept] = mk
			kept++
			continue
		}
		if mk.at > cursor {
			c.Acct.Add(bucket, int64(mk.at-cursor))
			cursor = mk.at
		}
		bucket = mk.b
	}
	c.parkMarks = c.parkMarks[:kept]
	c.Acct.Add(bucket, int64(to-cursor))
	c.parkAs = bucket
}

// Deliver accepts a reverse-network packet for this CE's port,
// dispatching prefetch-buffer fills to the PFU. Every reply the CE
// accepts — matched, late or unmatched — goes back on its free list once
// read: the reply is the CE's own request packet, rewritten by the
// memory module. The awaited scalar or sync reply, a vector stream's
// head element reply and the word that fills the head prefetch-buffer
// slot wake the CE, which may park while it waits for them.
func (c *CE) Deliver(now sim.Cycle, p *network.Packet) bool {
	if p.Tag < prefetch.TagSpan {
		if c.pfu == nil {
			panic(fmt.Sprintf("ce %d: prefetch reply without a PFU", c.ID))
		}
		// Only a prefetched vector load past its startup fill parks on
		// the head buffer slot (vectorNextEvent), so only it needs a wake
		// when the slot fills.
		op := c.cur
		parkable := op != nil && op.Kind == isa.Vector && op.UsePrefetch && now >= c.startupEnd && c.pfu.Pending()
		ok := c.pfu.Deliver(now, p)
		if parkable && c.pfu.Ready() {
			c.wake()
		}
		return ok
	}
	defer c.pool.Put(p)
	for i := range c.inflight {
		if h := &c.inflight[i]; h.tag == p.Tag {
			h.arrived = true
			h.usableAt = now + XferCycles
			h.v, h.ok = int64(p.Value), p.OK
			if i == 0 {
				c.wake()
			}
			return true
		}
	}
	for i, t := range c.stale {
		if t == p.Tag {
			// The original reply to a read that was reissued after a
			// timeout: its data was (or will be) superseded by the
			// retry's. Swallow it so the reverse network does not retry
			// the delivery forever.
			c.stale = append(c.stale[:i], c.stale[i+1:]...)
			c.LateReplies++
			return true
		}
	}
	// Unmatched tag: under sustained drop faults a reply can outlive the
	// stale ring (more than staleTagCap reads reissued before it lands).
	// Its data is superseded by a retry's just like a ring hit, so swallow
	// it — killing the run over an already-recovered read helps nobody.
	c.StaleReplies++
	return true
}

// forgetTag moves a reissued read's old tag into the stale ring, dropping
// the oldest tag when the ring is full. Shifting in place keeps the
// ring's backing array.
func (c *CE) forgetTag(tag uint64) {
	if len(c.stale) == staleTagCap {
		c.stale = append(c.stale[:0], c.stale[1:]...)
	}
	c.stale = append(c.stale, tag)
}

// Tick advances the CE one cycle, charging the cycle to exactly one
// accounting bucket and recording the classification of any span the
// engine elides before the next tick.
func (c *CE) Tick(now sim.Cycle) {
	c.parkMarks = c.parkMarks[:0] // post-tick state supersedes pending marks
	c.Acct.Add(c.tick(now), 1)
	c.parkAs = c.parkBucket(now + 1)
	if c.cur != nil && c.cur.Kind == isa.Vector && now+1 < c.startupEnd {
		// A span elided across the end of the startup fill goes on as
		// the operand wait the load may park in right after it.
		if b := c.parkBucket(c.startupEnd); b != c.parkAs {
			c.markPark(c.startupEnd, b)
		}
	}
}

// tick is the per-cycle state machine; it returns the bucket this cycle
// belongs to.
func (c *CE) tick(now sim.Cycle) isa.Bucket {
	if c.checkStopped && c.cur == nil {
		// Instruction boundary under a check-stop: surrender a held
		// program to the rescheduler (once), then freeze until Repair.
		// A program mid-prefetch-block cannot migrate — its armed block
		// and full/empty bits live in this CE's PFU — so it is held here
		// and resumed by Repair instead (resched.go counts on repair as
		// the redispatch guarantee of last resort).
		if c.prog != nil && c.OnSurrender != nil && (c.pfu == nil || c.pfu.Quiescent()) {
			p := c.prog
			c.prog = nil
			c.Surrendered++
			c.OnSurrender(p)
		}
		c.IdleCycles++
		return isa.AcctCheckStop
	}
	if c.cur == nil {
		if c.prog == nil {
			c.IdleCycles++
			return isa.AcctIdle
		}
		p := c.prog
		op := p.Next()
		if op == nil {
			// A completion callback inside Next (for example a join that
			// dispatches the continuation) may have force-assigned a new
			// program; only clear the slot if it is still the one that
			// ended.
			if c.prog == p {
				c.prog = nil
			}
			c.FinishedAt = now
			c.IdleCycles++
			return isa.AcctDispatch // the cycle that discovers program end
		}
		c.start(op, now)
		return isa.AcctDispatch
	}
	switch c.cur.Kind {
	case isa.Compute:
		if now >= c.finishAt {
			c.complete(now, 0, true)
		}
		return isa.AcctBusy
	case isa.Vector:
		return c.tickVector(now)
	case isa.Scalar:
		return c.tickScalar(now)
	case isa.Sync:
		return c.tickSync(now)
	case isa.IO:
		return c.tickIO(now)
	default:
		// isa.Prefetch: completed the cycle after firing. The op exists
		// only to drive the PFU, so both its cycles are dispatch.
		c.complete(now, 0, true)
		return isa.AcctDispatch
	}
}

// parkBucket classifies an elided cycle at or after at, the cycle after
// the last tick: the skippable states are exactly those whose NextEvent
// answer is in the future (or Never), and each keeps one bucket for the
// whole span, except that a vector load's span may run from its startup
// fill on into an operand wait.
func (c *CE) parkBucket(at sim.Cycle) isa.Bucket {
	if c.cur == nil {
		if c.checkStopped {
			return isa.AcctCheckStop
		}
		return isa.AcctIdle
	}
	switch c.cur.Kind {
	case isa.Compute:
		return isa.AcctBusy
	case isa.Vector:
		if at >= c.startupEnd && c.cur.UsePrefetch {
			return isa.AcctPrefetchWait // parked on the head buffer slot
		}
		return isa.AcctVectorWait // the startup fill, a direct operand wait
	case isa.Scalar:
		if c.finishAt == -2 && c.inflight[0].retries > 0 {
			return isa.AcctRecovery // parked on a reissued read
		}
		return isa.AcctScalarWait // reply wait, posted-write / cache-ready timers
	case isa.Sync:
		return isa.AcctSyncWait // reply wait, the SyncExtra completion timer
	case isa.IO:
		return isa.AcctIOPark
	default:
		return isa.AcctDispatch // Prefetch retires next tick, never skipped
	}
}

// start initializes per-op state. The op begins occupying the CE this
// cycle and makes progress from the next tick.
func (c *CE) start(op *isa.Op, now sim.Cycle) {
	c.cur = op
	c.vIssued, c.vDone = 0, 0
	c.inflight = c.inflight[:0]
	switch op.Kind {
	case isa.Compute:
		cost := op.Cycles
		if op.ExtraCost != nil {
			cost += op.ExtraCost(now)
		}
		c.finishAt = now + cost
	case isa.Vector:
		// Buffer-to-register transfer pipelines within the startup, so
		// prefetched and direct vector operations charge the same fill.
		c.startupEnd = now + VectorStartup
	case isa.Prefetch:
		c.pfu.ArmMasked(op.PFN, op.PFStride, op.PFMask)
		c.pfu.Fire(op.PFBase.Word)
	case isa.Scalar:
		c.startScalar(op, now)
	case isa.Sync:
		c.startSync(op, now)
	case isa.IO:
		c.startIO(op, now)
	}
}

// startIO submits the transfer and parks the program: the CE reports no
// next event until the completion callback wakes it with the handle.
func (c *CE) startIO(op *isa.Op, now sim.Cycle) {
	if c.io == nil {
		panic(fmt.Sprintf("ce %d: isa.IO operation with no I/O path attached", c.ID))
	}
	c.ioDone = false
	c.IORequests++
	label := op.IOLabel
	if label == "" {
		label = fmt.Sprintf("ce%d", c.ID)
	}
	c.io.SubmitIO(now, op.IOWords, op.IOFormatted, label, func(comp xylem.IOCompletion) {
		c.ioComp = comp
		c.ioDone = true
		c.wake()
	})
}

// tickIO completes a parked I/O operation once its completion handle has
// arrived, attributing the wait from the handle's cycle stamps. The
// completion fires in the IP's tick slot (after the CE's), so the CE
// observes it the following cycle identically in every engine mode.
// Parked cycles run from the cycle after the dispatch tick through the
// cycle the completion fires, which is exactly the handle's Wait() — so
// per-CE AcctIOPark equals IOWaitCycles, the cross-check the
// attribution tests assert.
func (c *CE) tickIO(now sim.Cycle) isa.Bucket {
	if !c.ioDone {
		return isa.AcctIOPark // parked
	}
	c.IOWaitCycles += int64(c.ioComp.Wait())
	c.IOWords += c.ioComp.Words
	c.complete(now, c.ioComp.Words, true)
	return isa.AcctBusy
}

// complete finishes the current op: functional payload, callbacks, stats.
func (c *CE) complete(now sim.Cycle, v int64, ok bool) {
	op := c.cur
	c.cur = nil
	c.lost = nil // a very late reply can still rescue an abandoned read
	c.OpsDone++
	if op.Do != nil {
		op.Do()
	}
	if op.OnDone != nil {
		op.OnDone(v, ok)
	}
}

func (c *CE) newTag() uint64 {
	c.nextTag++
	if c.nextTag < TagBase || c.nextTag >= SyncTagBase {
		c.nextTag = TagBase + 1
	}
	return c.nextTag
}

// newSyncTag draws from the sync namespace, above SyncTagBase, so the
// fault injector's droppable-range test can never select a sync reply.
func (c *CE) newSyncTag() uint64 {
	c.nextSyncTag++
	if c.nextSyncTag < SyncTagBase {
		c.nextSyncTag = SyncTagBase + 1
	}
	return c.nextSyncTag
}

// tickVector advances a vector operation: consume the head of the
// in-order element pipe (at most one per cycle), then issue the next
// element request subject to the outstanding limit.
//
// Accounting: a cycle that consumes an element (or retires the op) is
// busy regardless of how its issue half fared — progress beats waiting.
// A cycle with no consumption is a prefetch wait when spinning on the
// buffer's full/empty bit, and a vector wait otherwise (startup fill,
// direct operand in flight, refused issue).
func (c *CE) tickVector(now sim.Cycle) isa.Bucket {
	op := c.cur
	if now < c.startupEnd {
		return isa.AcctVectorWait
	}
	if op.N == 0 {
		c.complete(now, 0, true)
		return isa.AcctBusy
	}
	if op.Write {
		return c.tickVectorStore(now)
	}
	// Consume. A failed Consume is the modeled spin-wait on the buffer
	// slot's full/empty bit; the CE charges it as a memory stall.
	consumed := false
	if op.UsePrefetch {
		if c.vDone < op.N {
			if _, ok := c.pfu.Consume(); ok {
				c.vDone++
				c.Flops += int64(op.Flops)
				consumed = true
			} else {
				c.StallMem++
			}
		}
	} else {
		if len(c.inflight) > 0 {
			h := &c.inflight[0]
			if h.arrived && h.usableAt <= now {
				// Pop by shifting, so the issue side's append reuses the
				// backing array instead of growing a fresh one.
				c.inflight = append(c.inflight[:0], c.inflight[1:]...)
				c.vDone++
				c.Flops += int64(op.Flops)
				consumed = true
				// A very late reply can rescue an abandoned head; clear
				// the diagnosis so a later element's exhaustion is fresh.
				c.lost = nil
			} else {
				c.StallMem++
			}
		}
	}
	// Issue (not needed for the prefetch path: the PFU issues). A head
	// reissue owns the cycle's injection slot: the retry packet and a
	// fresh element request must not race for the same network port.
	reissuing := !op.UsePrefetch && c.retryHead(now)
	if !op.UsePrefetch && !reissuing && c.vIssued < op.N && len(c.inflight) < c.cfg.MaxOutstanding {
		addr := op.Base.Word + uint64(c.vIssued*op.Stride)
		if op.Base.Space == isa.Global {
			tag := c.newTag()
			if c.pool.Send(c.fwd, now, c.Port, &network.Packet{Dst: c.route(addr), Src: c.Port, Words: 1,
				Kind: network.Read, Addr: addr, Tag: tag, Phantom: true}) {
				req := inflightReq{tag: tag, addr: addr}
				if c.cfg.ReadTimeout > 0 {
					req.retryAt = now + c.cfg.ReadTimeout
				}
				c.inflight = append(c.inflight, req)
				c.vIssued++
			} else {
				c.StallNet++
			}
		} else {
			if ready, ok := c.cache.Access(now, c.Local, addr, false); ok {
				c.inflight = append(c.inflight, inflightReq{arrived: true, usableAt: ready})
				c.vIssued++
			} else {
				c.StallMem++
			}
		}
	}
	if c.vDone >= op.N {
		c.complete(now, 0, true)
		return isa.AcctBusy
	}
	if consumed {
		return isa.AcctBusy
	}
	if op.UsePrefetch {
		return isa.AcctPrefetchWait
	}
	if len(c.inflight) > 0 && c.inflight[0].retries > 0 {
		// Spinning on a reissued head: the backoff window is
		// fault-recovery time, not ordinary operand latency.
		return isa.AcctRecovery
	}
	return isa.AcctVectorWait
}

// retryHead applies the per-entry deadline to the head of the inflight
// queue, a vector stream's or a scalar read's: an unanswered global read
// whose deadline has passed is reissued under a fresh tag (the old tag
// retires through the stale ring so its late reply is swallowed), with
// exponential backoff. Head-only, like the PFU's reissue: in-order
// consumption means a younger element's deadline only matters once it
// becomes the head. Once MaxRetries is exhausted the request is recorded
// for FaultReason and the CE keeps waiting (the surrounding RunUntil
// budget converts the wedge into a diagnosable error). Syncs never come
// here. Returns true when this cycle's injection slot was spent on a
// retry attempt (successful or refused).
func (c *CE) retryHead(now sim.Cycle) bool {
	if c.cfg.ReadTimeout <= 0 || len(c.inflight) == 0 {
		return false
	}
	h := &c.inflight[0]
	if h.arrived || h.tag == 0 || now < h.retryAt {
		return false
	}
	if h.retries >= c.cfg.MaxRetries {
		if c.lost == nil {
			c.RetriesExhausted++
			what := "vector element read"
			if c.cur.Kind == isa.Scalar {
				what = "scalar read"
			}
			c.lost = &lostReq{what: what, tag: h.tag, addr: h.addr, retries: h.retries}
		}
		return false
	}
	tag := c.newTag()
	if !c.pool.Send(c.fwd, now, c.Port, &network.Packet{Dst: c.route(h.addr), Src: c.Port, Words: 1,
		Kind: network.Read, Addr: h.addr, Tag: tag, Phantom: true}) {
		c.StallNet++
		return true // port busy: deadline stays due, try again next cycle
	}
	c.forgetTag(h.tag)
	h.tag = tag
	c.Retries++
	h.retries++
	h.retryAt = now + c.cfg.ReadTimeout<<min(h.retries, 6)
	return true
}

// tickVectorStore issues one store element per cycle; stores are posted
// and never wait for completion. An issued element (and the op's
// retiring cycle) is busy; a refused issue is a vector wait.
func (c *CE) tickVectorStore(now sim.Cycle) isa.Bucket {
	op := c.cur
	issued := false
	addr := op.Base.Word + uint64(c.vIssued*op.Stride)
	if op.Base.Space == isa.Global {
		if c.pool.Send(c.fwd, now, c.Port, &network.Packet{Dst: c.route(addr), Src: c.Port, Words: 2,
			Kind: network.Write, Addr: addr, Phantom: true}) {
			c.vIssued++
			c.Flops += int64(op.Flops)
			issued = true
		} else {
			c.StallNet++
		}
	} else {
		if _, ok := c.cache.Access(now, c.Local, addr, true); ok {
			c.vIssued++
			c.Flops += int64(op.Flops)
			issued = true
		} else {
			c.StallMem++
		}
	}
	if c.vIssued >= op.N {
		c.complete(now, 0, true)
		return isa.AcctBusy
	}
	if issued {
		return isa.AcctBusy
	}
	return isa.AcctVectorWait
}

func (c *CE) startScalar(op *isa.Op, now sim.Cycle) {
	if op.ScalarAddr.Space == isa.Global {
		kind := network.Read
		words := 1
		if op.ScalarWrite {
			kind = network.Write
			words = 2
		}
		tag := c.newTag()
		if !c.pool.Send(c.fwd, now, c.Port, &network.Packet{Dst: c.route(op.ScalarAddr.Word), Src: c.Port, Words: words,
			Kind: kind, Addr: op.ScalarAddr.Word, Tag: tag, Phantom: true}) {
			// Retry from tickScalar.
			c.finishAt = -1
			c.StallNet++
			return
		}
		if op.ScalarWrite {
			c.finishAt = now + 1 // posted
		} else {
			req := inflightReq{tag: tag, addr: op.ScalarAddr.Word}
			if c.cfg.ReadTimeout > 0 {
				req.retryAt = now + c.cfg.ReadTimeout
			}
			c.inflight = append(c.inflight, req)
			c.finishAt = -2 // waiting on reply
		}
		return
	}
	// Cluster space through the cache.
	if ready, ok := c.cache.Access(now, c.Local, op.ScalarAddr.Word, op.ScalarWrite); ok {
		if op.ScalarWrite {
			c.finishAt = now + 1
		} else {
			c.finishAt = ready
		}
	} else {
		c.finishAt = -1 // retry
		c.StallMem++
	}
}

// tickScalar drives the scalar state machine. Accounting: the retiring
// cycle is busy; every other cycle is a scalar wait, except reply waits
// after the first timeout reissue, which are recovery — the
// request-layer backoff window (including a wedged read whose retries
// are exhausted) is fault-recovery time, not ordinary memory latency.
func (c *CE) tickScalar(now sim.Cycle) isa.Bucket {
	switch {
	case c.finishAt == -1: // structural retry
		c.startScalar(c.cur, now)
		return isa.AcctScalarWait
	case c.finishAt == -2: // waiting on global reply
		h := &c.inflight[0]
		if h.arrived && now >= h.usableAt {
			c.complete(now, h.v, h.ok)
			return isa.AcctBusy
		}
		c.StallMem++
		c.retryHead(now)
		if h.retries > 0 {
			return isa.AcctRecovery
		}
		return isa.AcctScalarWait
	default:
		if now >= c.finishAt {
			c.complete(now, 0, true)
			return isa.AcctBusy
		}
		return isa.AcctScalarWait
	}
}

// FaultReason implements sim.FaultReporter: non-empty once a read's
// reissues are exhausted, naming the pending request.
func (c *CE) FaultReason() string {
	if c.lost != nil {
		return fmt.Sprintf("%s of word %#x (tag %d) unanswered after %d reissues",
			c.lost.what, c.lost.addr, c.lost.tag, c.lost.retries)
	}
	return ""
}

func (c *CE) startSync(op *isa.Op, now sim.Cycle) {
	tag := c.newSyncTag()
	if !c.pool.Send(c.fwd, now, c.Port, &network.Packet{Dst: c.route(op.SyncAddr), Src: c.Port, Words: 2,
		Kind: network.Sync, Addr: op.SyncAddr, Sync: op.SyncSpec, Tag: tag}) {
		c.finishAt = -1
		c.StallNet++
		return
	}
	c.inflight = append(c.inflight, inflightReq{tag: tag, addr: op.SyncAddr})
	c.finishAt = -2
}

// tickSync drives a global synchronization instruction. Accounting: the
// retiring cycle is busy; everything else — injection retries, the
// network round trip, the SyncExtra completion timer — is sync wait.
func (c *CE) tickSync(now sim.Cycle) isa.Bucket {
	switch {
	case c.finishAt == -1:
		c.startSync(c.cur, now)
		return isa.AcctSyncWait
	case c.finishAt == -2:
		if c.inflight[0].arrived {
			c.finishAt = now + SyncExtra
		} else {
			c.StallMem++
		}
		return isa.AcctSyncWait
	default:
		if now >= c.finishAt {
			h := c.inflight[0]
			c.complete(now, h.v, h.ok)
			return isa.AcctBusy
		}
		return isa.AcctSyncWait
	}
}
