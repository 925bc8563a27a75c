// Package prefetch models the Cedar data prefetch unit (PFU).
//
// Each computational element has its own PFU, designed to mask the long
// global-memory latency and overcome the Alliant CE's limit of two
// outstanding requests. A PFU is "armed" with the length, stride and mask
// of a vector and "fired" with the physical address of the first word. It
// then issues up to 512 word requests without pausing, one per cycle,
// into the forward network. Data returns — possibly out of order, due to
// memory and network conflicts — to a 512-word prefetch buffer with a
// full/empty bit per word, which lets the CE start consuming before the
// prefetch completes while still receiving data in request order.
//
// When a prefetch crosses a page boundary the PFU suspends until the
// processor supplies the first physical address of the new page, because
// the PFU only handles physical addresses; this model charges a fixed
// processor-assist cost for each crossing.
package prefetch

import (
	"fmt"
	"slices"

	"repro/internal/network"
	"repro/internal/sim"
)

// BufferWords is the prefetch buffer capacity: 512 64-bit words, which is
// also the maximum number of outstanding requests.
const BufferWords = 512

// tagEpochBits sizes the per-slot instance epoch carried in the upper
// bits of every request tag (low bits: the buffer slot). With the
// reissue machinery a reply can outlive its request instance — the
// original answer of a reissued read arriving after its slot has moved
// on to a later lap of the buffer, or a later prefetch entirely. The
// epoch lets Deliver recognize such a reply as stale and swallow it
// instead of either accepting another instance's data into the slot or
// refusing delivery (a refused reverse-network head is retried forever,
// which wedges the port). 1024 epochs per slot is far deeper than any
// network can hold packets, so a wrapped epoch cannot alias a live one.
const tagEpochBits = 10

// TagSpan bounds the prefetch tag namespace [0, TagSpan): slot in the
// low bits, epoch above. Packet routing uses it to tell prefetch replies
// from CE direct-tag replies, so it must stay below ce.TagBase.
const TagSpan = BufferWords << tagEpochBits

// PageWords is the Xylem page size (4 KB) in 64-bit words.
const PageWords = 512

// PageCrossCycles is the modeled cost of the processor supplying the
// first physical address of a new page when a prefetch suspends at a
// page boundary.
const PageCrossCycles sim.Cycle = 10

// SpinBound is the consecutive-cycle bound on a consumer spin-wait
// against an empty full/empty bit. A legitimate stall — a reply held up
// by network and memory conflicts — resolves within thousands of cycles;
// a spin past the bound (about 0.18 s of simulated time) means the data
// can never arrive and the PFU reports it as an unrecoverable fault
// instead of spinning silently forever.
const SpinBound = 1 << 20

// outReq is one outstanding request tracked for timeout/reissue.
type outReq struct {
	seq     int
	addr    uint64
	tag     uint64 // epoch-qualified network tag (reissues reuse it)
	retries int
	retryAt sim.Cycle
}

// lostReq records the first request whose reissues were exhausted, for
// the FaultReason diagnosis.
type lostReq struct {
	seq     int
	addr    uint64
	retries int
}

// PFU is one prefetch unit. It is a sim.Component (it issues requests
// during its Tick) and receives replies via Deliver, forwarded by its CE
// from the reverse-network port they share.
type PFU struct {
	port  int // shared network port of the owning CE
	fwd   *network.Network
	pool  network.Pool // free packets: refused offers and read replies
	waker sim.Waker

	// req is the request every issue and reissue offers: only its Dst,
	// Addr and Tag change, so an attempt the network refuses builds no
	// packet.
	req network.Packet

	// Armed parameters.
	length int
	stride int
	mask   []bool // nil = fetch every element

	// Firing state.
	active   bool
	nextAddr uint64
	issued   int // requests issued this prefetch
	arrived  int // replies received this prefetch
	consumed int // words consumed by the CE this prefetch
	resumeAt sim.Cycle

	// The prefetch buffer: each slot's word and its full/empty bit, kept
	// in separate slices so neither pads the other. The slot slices
	// (these, got and curTag) hold only the slots the longest block
	// armed so far reaches, at most BufferWords: a 32-word strip
	// prefetch never touches slot 32, so its unit carries 32 slots.
	value []uint64
	full  []bool

	// Request-layer recovery (enabled by SetTimeout; all dormant when
	// timeout is zero, so the no-fault machine is bit-identical to one
	// built before this machinery existed). outq[outqHead:] is the FIFO
	// of outstanding requests; only the head — the oldest request, the
	// one the in-order consumer needs first — is ever reissued. Popping
	// advances outqHead, and an emptied FIFO rewinds to the start of its
	// backing array, so issuing never reallocates it. got marks
	// buffer slots whose reply arrived for the slot's current occupant:
	// unlike the full bit it survives consumption, so a late duplicate
	// reply (the original raced its own retry) is recognized and
	// swallowed rather than corrupting the next wrap's slot.
	timeout    sim.Cycle
	maxRetries int
	outq       []outReq
	outqHead   int
	got        []bool
	lost       *lostReq

	// curTag[s] is the epoch-qualified tag of slot s's current request
	// instance; a reply carrying any other tag for the slot is stale.
	// Epochs advance at issue and deliberately survive Fire — staleness
	// crosses prefetch boundaries. Tags are below TagSpan (2^19), so 32
	// bits hold them.
	curTag []uint32

	// Spin-wait bookkeeping for Consume on an empty full/empty bit.
	spinSeq   int
	spinRun   int64
	spinStuck bool

	// routeFn maps a word address to its memory-module forward port.
	routeFn func(addr uint64) int

	// OnFire, OnIssue and OnArrive observe the prefetch for performance
	// monitoring: OnFire marks the start of each block (a Fire with a
	// non-empty descriptor), OnIssue each request injected into the
	// network (seq is the request index within the prefetch) and OnArrive
	// each reply reaching the buffer. OnArrive receives the reply's buffer
	// slot (seq mod BufferWords, the low bits of the request's tag), which
	// identifies the originating request even when replies from different
	// memory modules interleave out of issue order.
	OnFire   func(addr uint64)
	OnIssue  func(now sim.Cycle, seq int, addr uint64)
	OnArrive func(now sim.Cycle, slot int)

	// Counters.
	Prefetches       int64
	Issued           int64
	PageCrossings    int64
	StallCycles      int64 // cycles the PFU wanted to issue but the network refused
	Retries          int64 // requests reissued after a timeout
	RetriesExhausted int64 // requests abandoned with retries exhausted
	DuplicateReplies int64 // late replies swallowed after a successful retry
	StaleReplies     int64 // replies to superseded request instances, swallowed
	SpinWaits        int64 // consumer spin cycles on an empty full/empty bit
}

// New returns a PFU issuing into fwd at the given shared port.
func New(fwd *network.Network, port int) *PFU {
	return &PFU{port: port, fwd: fwd, spinSeq: -1,
		req: network.Packet{Src: port, Words: 1, Kind: network.Read}}
}

// growSlots extends the buffer to the slots a block of length words
// reaches. A new slot starts empty, at epoch 0 ("never issued").
func (u *PFU) growSlots(length int) {
	old, n := len(u.curTag), min(length, BufferWords)
	if n <= old {
		return
	}
	u.value = append(u.value, make([]uint64, n-old)...)
	u.full = append(u.full, make([]bool, n-old)...)
	u.got = append(u.got, make([]bool, n-old)...)
	u.curTag = slices.Grow(u.curTag, n-old)
	for s := old; s < n; s++ {
		u.curTag = append(u.curTag, uint32(s))
	}
}

// SetTimeout enables request-layer recovery: a request whose reply has
// not arrived after deadline cycles is reissued, with exponential backoff
// (deadline<<1, <<2, ... capped at <<6) and at most maxRetries reissues
// before the request is abandoned and reported via FaultReason. A zero
// deadline disables the machinery entirely.
func (u *PFU) SetTimeout(deadline sim.Cycle, maxRetries int) {
	if deadline < 0 {
		deadline = 0
	}
	if maxRetries < 0 {
		maxRetries = 0
	}
	u.timeout = deadline
	u.maxRetries = maxRetries
}

// AttachWaker implements sim.WakeSink: the engine hands the PFU its own
// Handle at registration. The PFU reports sim.Never when it has nothing
// left to issue or the buffer is full of unconsumed data, so the stimuli
// that must wake it are Fire (a new block) and Consume (space freed).
// Deliver needs no wake: an arrival never creates issue work.
func (u *PFU) AttachWaker(w sim.Waker) { u.waker = w }

func (u *PFU) wake() {
	if u.waker != nil {
		u.waker.Wake()
	}
}

// Arm loads the vector descriptor: length in words and stride in words,
// with no mask. Arming does not start the prefetch; Fire does.
func (u *PFU) Arm(length, stride int) {
	u.ArmMasked(length, stride, nil)
}

// ArmMasked loads a full descriptor: length, stride and mask, as the
// hardware is armed. mask[i] false suppresses element i's fetch; its
// buffer slot is marked full with zero at fire time, so the consumer's
// request-order view is preserved (gather-style strip mining over
// boundary elements). A nil mask fetches everything; the mask length
// must equal the vector length otherwise.
func (u *PFU) ArmMasked(length, stride int, mask []bool) {
	if length < 0 {
		panic(fmt.Sprintf("prefetch: negative length %d", length))
	}
	if mask != nil && len(mask) != length {
		panic(fmt.Sprintf("prefetch: mask of %d for length %d", len(mask), length))
	}
	if stride == 0 {
		stride = 1
	}
	u.growSlots(length)
	u.length = length
	u.stride = stride
	u.mask = mask
}

// Fire starts the armed prefetch at physical word address addr. Any data
// remaining in the buffer from a previous prefetch is invalidated, as in
// the hardware.
func (u *PFU) Fire(addr uint64) {
	clear(u.full)
	u.active = u.length > 0
	u.nextAddr = addr
	u.issued = 0
	u.arrived = 0
	u.consumed = 0
	u.resumeAt = 0
	u.outq, u.outqHead = u.outq[:0], 0
	clear(u.got)
	u.lost = nil
	u.spinSeq = -1
	u.spinRun = 0
	u.spinStuck = false
	if u.mask != nil {
		// Pre-fill the masked-off slots so the consumer's in-order view
		// sees them as (zero) data that never traveled the network.
		for i, on := range u.mask {
			if !on && i < BufferWords {
				u.full[i] = true
				u.value[i] = 0
			}
		}
	}
	if u.active {
		u.Prefetches++
		if u.OnFire != nil {
			u.OnFire(addr)
		}
		u.wake()
	}
}

// Active reports whether a prefetch is in progress (not all requests
// issued and arrived).
func (u *PFU) Active() bool { return u.active }

// NextEvent implements sim.IdleComponent, mirroring Tick's early-return
// guards. A PFU with nothing to issue is woken externally: Fire starts a
// new block, Deliver completes one, and the owning CE (which ticks before
// its PFU) frees buffer space by consuming. A page-cross suspension is a
// pure timer, so its expiry is reported for fast-forwarding. The
// issue-but-refused state returns now because StallCycles accrues there.
//
// With timeouts enabled the head retry deadline is folded in, so a PFU
// waiting only on a lost reply fast-forwards to the reissue instead of
// parking forever (and is never dormant while requests are outstanding —
// essential because the reply that would wake it may have been dropped).
// A retry deadline only moves later (backoff) or disappears when the
// head's reply arrives, which requires a reverse-network tick in that
// same cycle, so the engine's per-executed-cycle re-query always observes
// the successor entry in time; the fast-forward contract holds.
func (u *PFU) NextEvent(now sim.Cycle) sim.Cycle {
	next := u.issueNextEvent(now)
	if u.timeout > 0 {
		u.pruneOutq()
		if u.outqHead < len(u.outq) {
			t := u.outq[u.outqHead].retryAt
			if t < now {
				t = now
			}
			if t < next {
				next = t
			}
		}
	}
	return next
}

// issueNextEvent is the issue-side quiescence answer (the pre-recovery
// NextEvent).
func (u *PFU) issueNextEvent(now sim.Cycle) sim.Cycle {
	if !u.active || u.issued >= u.length {
		return sim.Never
	}
	if now < u.resumeAt {
		return u.resumeAt
	}
	if u.issued-u.consumed >= BufferWords {
		return sim.Never // full: woken when the CE consumes
	}
	return now
}

// pruneOutq pops outstanding-queue heads whose reply has arrived. It is
// idempotent and has no architected effect (arrival facts are stable), so
// both NextEvent and Tick may call it at will.
func (u *PFU) pruneOutq() {
	for u.outqHead < len(u.outq) && u.got[u.outq[u.outqHead].seq%BufferWords] {
		u.popOutq()
	}
}

// popOutq removes the outstanding-queue head.
func (u *PFU) popOutq() {
	if u.outqHead++; u.outqHead == len(u.outq) {
		u.outq, u.outqHead = u.outq[:0], 0
	}
}

// tickRetry runs the recovery side of a tick: reissue the oldest
// outstanding request once its deadline has passed, or abandon it when
// its retries are exhausted. It reports whether the single per-cycle
// injection slot was used (a reissue has priority over a new issue; an
// abandonment is bookkeeping only and leaves the slot free). Only the
// FIFO head is ever considered: issue deadlines are non-decreasing, and
// the in-order consumer cannot proceed past the oldest missing word
// anyway.
func (u *PFU) tickRetry(now sim.Cycle) bool {
	if u.timeout == 0 {
		return false
	}
	u.pruneOutq()
	if u.outqHead == len(u.outq) || now < u.outq[u.outqHead].retryAt {
		return false
	}
	h := &u.outq[u.outqHead]
	if h.retries >= u.maxRetries {
		u.RetriesExhausted++
		if u.lost == nil {
			u.lost = &lostReq{seq: h.seq, addr: h.addr, retries: h.retries}
		}
		u.popOutq()
		return false
	}
	// Same instance, same tag: the got bit resolves reply/retry races.
	if !u.send(now, h.addr, h.tag) {
		u.StallCycles++
		return true
	}
	// No OnIssue for a reissue: the perfmon probe pairs issues with
	// arrivals per slot, and a retried request still produces exactly one
	// arrival.
	u.Retries++
	h.retries++
	shift := uint(h.retries)
	if shift > 6 {
		shift = 6
	}
	h.retryAt = now + u.timeout<<shift
	return true
}

// Tick issues the next request if the PFU is active, the buffer has a
// free slot, the page-crossing suspension (if any) has elapsed, and the
// forward network accepts the packet. Issue rate is one request per cycle.
func (u *PFU) Tick(now sim.Cycle) {
	if u.tickRetry(now) {
		return // the injection slot went to a reissue this cycle
	}
	if !u.active || u.issued >= u.length {
		return
	}
	if now < u.resumeAt {
		return
	}
	if u.issued-u.consumed >= BufferWords {
		return // buffer full of unconsumed data
	}
	// Masked-off elements take no network request: their slots were
	// pre-filled at fire time and the address/issue counters advance for
	// free here.
	for u.issued < u.length && u.mask != nil && !u.mask[u.issued] {
		u.full[u.issued%BufferWords] = true
		u.value[u.issued%BufferWords] = 0
		u.issued++
		u.arrived++
		u.nextAddr += uint64(u.stride)
	}
	if u.issued >= u.length {
		if u.arrived >= u.length {
			u.active = false
		}
		return
	}
	slot := u.issued % BufferWords
	tag := nextSlotTag(uint64(u.curTag[slot]))
	if !u.send(now, u.nextAddr, tag) {
		u.StallCycles++
		return
	}
	u.curTag[slot] = uint32(tag) // committed: any older instance's reply is now stale
	if u.OnIssue != nil {
		u.OnIssue(now, u.issued, u.nextAddr)
	}
	if u.timeout > 0 {
		u.got[slot] = false
		u.outq = append(u.outq, outReq{seq: u.issued, addr: u.nextAddr, tag: tag, retryAt: now + u.timeout})
	}
	u.Issued++
	u.issued++
	prev := u.nextAddr
	u.nextAddr += uint64(u.stride)
	if u.issued < u.length && prev/PageWords != u.nextAddr/PageWords {
		// Page crossing: suspend until the processor supplies the first
		// address in the new page.
		u.PageCrossings++
		u.resumeAt = now + PageCrossCycles
	}
}

// send offers a read of the word at addr under tag to the forward
// network, reporting whether it was accepted.
func (u *PFU) send(now sim.Cycle, addr, tag uint64) bool {
	u.req.Dst, u.req.Addr, u.req.Tag = u.route(addr), addr, tag
	return u.pool.Send(u.fwd, now, u.port, &u.req)
}

// nextSlotTag advances a slot's instance epoch, returning the tag for
// the slot's next request. Epoch 0 (tag == slot) is reserved for
// "never issued", so the wrap returns to epoch 1.
func nextSlotTag(cur uint64) uint64 {
	nt := cur + BufferWords
	if nt >= TagSpan {
		nt = cur%BufferWords + BufferWords
	}
	return nt
}

// route maps a word address to its memory-module forward port.
func (u *PFU) route(addr uint64) int {
	if u.routeFn == nil {
		panic("prefetch: no router installed (SetRouter)")
	}
	return u.routeFn(addr)
}

// SetRouter installs the address-to-forward-port mapping (normally the
// global memory's interleaving function).
func (u *PFU) SetRouter(f func(addr uint64) int) { u.routeFn = f }

// Deliver accepts a reply from the reverse network (forwarded by the CE
// that shares the port). With reissue recovery a reply may outlive its
// request instance — Fire CAN run with an abandoned read's answer still
// in flight — so the tag's epoch decides: a reply for anything but the
// slot's current instance is counted stale and swallowed. Deliver never
// refuses a prefetch-tagged packet (a refused reverse-network head is
// redelivered forever, wedging the port); false is reserved for tags
// outside the prefetch namespace, which a correctly wired machine never
// routes here. Every reply Deliver accepts goes back on the PFU's free
// list once read: the reply is the PFU's own request packet, rewritten
// by the memory module.
func (u *PFU) Deliver(now sim.Cycle, p *network.Packet) bool {
	if p.Tag >= TagSpan {
		return false
	}
	defer u.pool.Put(p)
	seqSlot := int(p.Tag % BufferWords)
	if seqSlot >= len(u.curTag) || p.Tag != uint64(u.curTag[seqSlot]) {
		// A superseded instance's reply: the original answer of a
		// reissued read outliving its slot's lap, or its whole prefetch.
		// Swallow it — accepting would poison the slot with another
		// request's data, and returning false would leave the reverse
		// network retrying the delivery forever.
		u.StaleReplies++
		return true
	}
	if (u.timeout > 0 && u.got[seqSlot]) || u.full[seqSlot] {
		// The slot's current occupant already has its data: the loser of
		// a reply/retry race. Swallow it for the same reason.
		u.DuplicateReplies++
		return true
	}
	if u.timeout > 0 {
		u.got[seqSlot] = true
	}
	u.value[seqSlot] = p.Value
	u.full[seqSlot] = true
	u.arrived++
	if u.OnArrive != nil {
		u.OnArrive(now, seqSlot)
	}
	if u.arrived >= u.length && u.issued >= u.length {
		u.active = false
	}
	return true
}

// Ready reports whether the next word in request order is in the buffer.
func (u *PFU) Ready() bool {
	if u.consumed >= u.length {
		return false
	}
	return u.full[u.consumed%BufferWords]
}

// Pending reports whether the next word in request order is on its way
// through the network: inside the armed block, fetched (not masked off),
// and not in the buffer yet. A consumer spinning on a pending word can
// sleep until Deliver fills its slot, which is exactly when Ready turns
// true; a masked-off word is filled by the PFU's own issue pointer, and
// a word past the armed block never arrives.
func (u *PFU) Pending() bool {
	return u.consumed < u.length && !u.full[u.consumed%BufferWords] &&
		(u.mask == nil || u.mask[u.consumed])
}

// Consume removes and returns the next word in request order. The CE both
// accesses the buffer without waiting for the whole prefetch and receives
// the data in the order requested — the role of the full/empty bits. A
// clear full/empty bit is the paper's memory-based synchronization: the
// consumer spins on the bit, modeled as a failed Consume (ok false) the
// caller charges as a stall cycle. A spin exceeding SpinBound on the same
// word is recorded as an unrecoverable fault (see FaultReason) — the
// diagnosis for data that can never arrive — instead of panicking or
// spinning silently.
func (u *PFU) Consume() (uint64, bool) {
	if u.length == 0 || u.consumed >= u.length {
		// Consuming past the armed block: no data can ever arrive here.
		// A program resumed without its prefetch context (the bug class
		// gang rescheduling can create) lands exactly on this path, so
		// run the same spin diagnosis as an empty slot — a silent wedge
		// becomes a named fault in ErrDeadline instead.
		u.Spin(1)
		return 0, false
	}
	i := u.consumed % BufferWords
	if !u.full[i] {
		u.Spin(1)
		return 0, false
	}
	u.spinSeq = -1
	u.spinRun = 0
	u.full[i] = false
	v := u.value[i]
	u.consumed++
	u.wake() // frees a buffer slot: a full-buffer PFU may issue again
	return v, true
}

// Spin records n failed Consume calls on the current next word, for a
// consumer that slept through n cycles of its spin-wait: SpinWaits, the
// spin run and the SpinBound diagnosis advance exactly as n calls would.
// Repeated failures on the same word index past SpinBound mark the PFU
// stuck.
func (u *PFU) Spin(n int64) {
	u.SpinWaits += n
	if u.spinSeq == u.consumed {
		u.spinRun += n
	} else {
		u.spinSeq = u.consumed
		u.spinRun = n
	}
	if u.spinRun > SpinBound {
		u.spinStuck = true
	}
}

// Quiescent reports that the PFU holds no prefetch context: no block is in
// flight and every fetched word has been consumed. Only between blocks is a
// program's prefetch state empty enough to resume on a different CE — PFU
// buffers are per-CE and do not migrate.
func (u *PFU) Quiescent() bool {
	return !u.active && u.consumed >= u.length
}

// FaultReason implements sim.FaultReporter: non-empty once the PFU has
// abandoned a request (retries exhausted) or a consumer spin-wait has
// exceeded SpinBound, naming the pending request either way.
func (u *PFU) FaultReason() string {
	if u.lost != nil {
		return fmt.Sprintf("prefetch word %d (addr %#x) unanswered after %d reissues",
			u.lost.seq, u.lost.addr, u.lost.retries)
	}
	if u.spinStuck {
		return fmt.Sprintf("consumer spun past %d cycles on empty slot %d (word %d of %d)",
			int64(SpinBound), u.spinSeq%BufferWords, u.spinSeq, u.length)
	}
	return ""
}

// Complete reports whether every armed word has been issued, arrived and
// been consumed.
func (u *PFU) Complete() bool {
	return u.length == 0 || (u.consumed >= u.length)
}
