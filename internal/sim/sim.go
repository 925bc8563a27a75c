// Package sim provides the cycle-stepped discrete simulation engine that
// underlies the Cedar machine model.
//
// Every hardware unit in the model (computational elements, network
// switches, memory modules, prefetch units, caches) is a Component
// registered with an Engine. The Engine advances simulated time one
// instruction cycle at a time; one cycle corresponds to the Alliant FX/8
// CE instruction cycle of 170 ns described in the paper. Components are
// ticked in registration order, which makes every simulation fully
// deterministic: the same program on the same configuration always takes
// exactly the same number of cycles.
//
// A cycle-stepped engine (rather than an event-queue design) is used
// because during the kernels studied in the paper essentially every unit
// is active every cycle, and because exact determinism keeps the test
// suite precise. The paper's workloads nevertheless contain long quiet
// stretches — the ≈90 µs XDOALL startup, barrier spin backoffs, drained
// networks between strips — so the fast engine path runs on a wake
// calendar: bitsets over registration indices mark the components due at
// the current and the next cycle, and a min-heap keyed by each
// component's NextEvent cycle (ties broken by registration index) holds
// answers further ahead. Scanning a due set's bits in ascending order is
// registration order, so tick order matches the naive scan. An executed
// cycle touches only the components due at it; everything else costs
// nothing, so per-cycle host cost is O(components due), not
// O(components registered). A component whose answer is Never has no
// calendar entry at all: it is marked dormant until an external
// stimulus calls Wake on its Handle, which sets its bit at the exact
// slot the naive engine would next observe the stimulus. Fast-forward
// falls out of the same structure — when nothing is due, time jumps to
// the calendar's minimum. All optimizations are exact: the wake-cached
// path produces bit-identical cycle counts and statistics to the naive
// tick-everything run (SetMode selects the path for equivalence
// testing).
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"time"
)

// Cycle is a point in (or span of) simulated time, measured in CE
// instruction cycles of 170 ns.
type Cycle int64

// CycleTime is the duration of one simulated cycle: the 170 ns Alliant
// FX/8 CE instruction cycle.
const CycleTime = 170 * time.Nanosecond

// CyclesPerSecond is the simulated clock rate (about 5.88 MHz).
const CyclesPerSecond = float64(time.Second) / float64(CycleTime)

// Seconds converts a cycle count to simulated seconds.
func (c Cycle) Seconds() float64 { return float64(c) / CyclesPerSecond }

// Duration converts a cycle count to a time.Duration of simulated time.
func (c Cycle) Duration() time.Duration { return time.Duration(c) * CycleTime }

// FromDuration converts a duration of simulated time to whole cycles,
// rounding up so that a positive duration never becomes zero cycles.
//
// Like FromMicroseconds, the conversion saturates instead of wrapping:
// for durations within CycleTime-1 of math.MaxInt64 the round-up bias
// (d + CycleTime - 1) used to overflow int64 and come back negative, so
// anything in that band — and any quotient beyond the representable
// cycle range — clamps to the maximum Cycle.
func FromDuration(d time.Duration) Cycle {
	if d <= 0 {
		return 0
	}
	if d > math.MaxInt64-(CycleTime-1) {
		// The round-up bias would wrap; the unbiased quotient cannot,
		// and adding the partial-cycle carry keeps the ceiling exact.
		c := Cycle(d / CycleTime)
		if d%CycleTime != 0 && c < math.MaxInt64 {
			c++
		}
		return c
	}
	return Cycle((d + CycleTime - 1) / CycleTime)
}

// FromMicroseconds converts simulated microseconds to cycles, rounding up.
// One cycle is 170 ns = 17/100 µs, so the conversion works in hundredths
// of a microsecond: when the input is (within float tolerance of) a whole
// number of hundredths the division is done in integers, which keeps exact
// cycle multiples exact — 0.17 µs is 1 cycle, not the 2 that a float
// divide's representation error used to produce.
//
// The conversion saturates instead of wrapping: inputs so large that
// us*100 no longer fits an int64 (where the float→int conversion is
// undefined and used to wrap negative) convert in floating point, and
// anything beyond the representable cycle range clamps to the maximum
// Cycle. NaN converts to 0.
func FromMicroseconds(us float64) Cycle {
	if math.IsNaN(us) || us <= 0 {
		return 0
	}
	h := us * 100
	// Past 2^62 hundredths the integer fast path below would overflow:
	// int64(r) is undefined for r >= 2^63 and (int64(r)+16) can wrap even
	// before that. Convert in floating point and saturate.
	if h >= float64(1<<62) {
		c := math.Ceil(h / 17)
		if c >= float64(math.MaxInt64) {
			return Cycle(math.MaxInt64)
		}
		return Cycle(c)
	}
	r := math.Round(h)
	if math.Abs(h-r) <= 1e-9*math.Max(r, 1) {
		return Cycle((int64(r) + 16) / 17)
	}
	return Cycle(math.Ceil(h / 17))
}

// A Component is a hardware unit advanced by the engine once per cycle.
type Component interface {
	// Tick advances the component through the cycle that begins at now.
	Tick(now Cycle)
}

// ComponentFunc adapts a plain function to the Component interface.
type ComponentFunc func(now Cycle)

// Tick implements Component.
func (f ComponentFunc) Tick(now Cycle) { f(now) }

// Never is the NextEvent answer meaning "no scheduled work: only external
// stimulus (a Deliver, a program assignment, a queued request) can create
// an event for this component".
const Never = Cycle(math.MaxInt64)

// IdleComponent is optionally implemented by components that can report
// quiescence. NextEvent returns the earliest cycle at or after now at
// which ticking the component could change any observable state —
// including statistics counters. A result <= now means "tick me this
// cycle"; a future cycle means every tick before it would be a no-op; and
// Never means the component is fully passive until external stimulus.
//
// The engine schedules each component on a wake calendar keyed by its
// last NextEvent answer and queries it again exactly when that cycle
// arrives — immediately before the component's tick slot, never from a
// stale snapshot — so a component woken by an earlier-in-order component
// during the same cycle is ticked exactly as the naive engine would tick
// it. A future answer must therefore stay valid until it arrives:
// external stimulus delivered between the component's tick slots may
// move the answer later (the calendar re-queries on arrival and
// reschedules) or call Wake on the component's Handle (which makes it
// due at the wake slot), but an earlier event without a
// Wake is unobservable. Components whose wake-up time can move earlier
// outside a waking entry point must return now or Never. A Never answer
// removes the component from the calendar entirely: it is marked dormant
// and not queried again until something calls Wake on its Handle, so
// every external-stimulus entry point of a Never-capable component must
// wake it (see Waker and DESIGN.md §4.1). CheckDormant finds an entry
// point that forgot to.
type IdleComponent interface {
	Component
	NextEvent(now Cycle) Cycle
}

// Probe is the telemetry sampler's view of the engine. NextSample
// returns the next cycle at or after now at which the probe wants a
// snapshot (Never for none); SampleNow is called with that cycle once
// simulated time reaches it, after deferred skip accounting has been
// settled and before the cycle executes. The engine lands on sample
// boundaries exactly — a fast-forward jump is capped at the next
// boundary — but landing there only re-queries NextEvent; it never
// ticks a component that had no work, so sampling cannot perturb the
// simulation (DESIGN.md §4.1).
type Probe interface {
	NextSample(now Cycle) Cycle
	SampleNow(now Cycle)
}

// FaultReporter is optionally implemented by components that can enter an
// unrecoverable fault state (a request whose retries are exhausted, a
// synchronization spin that exceeded its bound). FaultReason returns ""
// while the component is healthy and a one-line human-readable diagnosis
// — naming the pending request — once the component has given up.
// RunUntil consults it only on the deadline-exceeded path, so reporting a
// fault never perturbs a run that still completes; it only converts an
// opaque timeout into a diagnosable error.
type FaultReporter interface {
	FaultReason() string
}

// SkipAware is optionally implemented by components whose per-cycle tick
// accrues counters even when idle (the CE's IdleCycles). When the engine
// elides ticks, it calls SkipCycles with the half-open span [from, to) of
// cycles it never executed for this component, immediately before the
// next real tick and again when a run returns, so counters match the
// naive engine bit for bit. Counters are therefore only guaranteed
// settled when Run/RunUntil return (or after an explicit Settle).
type SkipAware interface {
	SkipCycles(from, to Cycle)
}

// EngineMode selects how aggressively the engine elides work. Both modes
// are bit-identical in every architected outcome (cycle counts, component
// statistics, telemetry fingerprints); they differ only in host-side cost
// and in the engine's own diagnostic counters.
type EngineMode int

const (
	// ModeWakeCached (the default) is the fast path: idle components are
	// skipped, quiet stretches are fast-forwarded, and a component whose
	// NextEvent answer is Never is marked dormant and excluded from the
	// per-cycle query loop until its Handle is woken.
	ModeWakeCached EngineMode = iota
	// ModeNaive ticks every component every cycle — the ground-truth
	// reference path for the determinism equivalence tests.
	ModeNaive
)

// String names the mode for benchmarks and error messages.
func (m EngineMode) String() string {
	switch m {
	case ModeWakeCached:
		return "wake-cached"
	case ModeNaive:
		return "naive"
	}
	return fmt.Sprintf("EngineMode(%d)", int(m))
}

// Engine owns simulated time and the ordered set of components.
// The zero value is not usable; call New.
type Engine struct {
	now   Cycle
	comps []Component
	names []string

	// Parallel to comps: the quiescence view of each component (nil when
	// the component does not implement the interface), the last cycle it
	// was actually ticked (-1 before the first tick), and whether its
	// last NextEvent answer was Never (dormant components have no
	// calendar entry and are not queried again until woken).
	idle     []IdleComponent
	skip     []SkipAware
	lastTick []Cycle
	dormant  []bool

	// ticks counts each component's executed ticks on either path: the
	// engine's self-profile, read through Ticks.
	ticks []int64

	// The wake calendar (fast path only). Due sets are bitsets over
	// registration indices, one bit per component. Every IdleComponent is
	// in exactly one place at a time: due (queried at the cycle being
	// executed, or between cycles at e.now), next (queried at the cycle
	// after it), the calendar heap (an answer more than one cycle ahead),
	// or the dormant set (last answer Never). The two due sets spare the
	// heap push/pop churn of dense phases where every unit ticks every
	// cycle. Components that do not implement IdleComponent have a bit in
	// always and are ticked at every executed cycle.
	always   []uint64
	due      []uint64
	next     []uint64
	cal      calendar
	nDormant int

	mode    EngineMode
	ticking bool
	// curIdx is the registration index of the component whose slot the
	// engine is processing mid-cycle (-1 outside the loop); Wake uses it
	// to place a woken component at the same cycle when the waker ticks
	// earlier in registration order, next cycle otherwise.
	curIdx int

	probe      Probe
	nextSample Cycle

	// SkippedTicks counts component ticks elided at executed cycles;
	// FastForwarded counts whole cycles jumped over because every
	// component agreed the machine was quiet; DormantSkips counts the
	// subset of SkippedTicks elided without a NextEvent query because the
	// component was dormant. All are diagnostics: they do not affect
	// simulated time.
	SkippedTicks  int64
	FastForwarded int64
	DormantSkips  int64
}

// New returns an empty engine at cycle zero in ModeWakeCached.
func New() *Engine { return &Engine{nextSample: Never, curIdx: -1} }

// SetMode selects the engine path. The mode is chosen on an empty
// engine: Register seeds each component's calendar state for the path
// in force, so SetMode panics once a component has registered or time
// has moved.
func (e *Engine) SetMode(m EngineMode) {
	if len(e.comps) > 0 || e.now != 0 {
		panic("sim: SetMode after a component registered or time moved")
	}
	e.mode = m
}

// Mode reports the selected engine path.
func (e *Engine) Mode() EngineMode { return e.mode }

// SetProbe installs (or, with nil, removes) the telemetry probe. The
// probe is shared by both engine paths, so a sampled run records the
// same series whichever path executes it.
func (e *Engine) SetProbe(p Probe) {
	e.probe = p
	e.nextSample = Never
	if p != nil {
		e.nextSample = p.NextSample(e.now)
	}
}

// maybeSample takes any probe snapshots due at the current cycle. It
// runs before the cycle executes on both engine paths, so a sample
// observes the architected state exactly as it stood when cycle now was
// about to begin.
func (e *Engine) maybeSample() {
	if e.probe == nil {
		return
	}
	for e.now >= e.nextSample {
		e.Settle()
		e.probe.SampleNow(e.now)
		ns := e.probe.NextSample(e.now + 1)
		if ns <= e.now {
			ns = e.now + 1
		}
		e.nextSample = ns
	}
}

// A Handle identifies a registered component to its engine. The zero
// Handle is valid and inert: waking it is a no-op, so components built
// without an engine (unit-test doubles) need no special casing.
type Handle struct {
	eng *Engine
	idx int
}

// Wake marks the component runnable again after external stimulus. A
// dormant component (last NextEvent answer Never) becomes due at the
// next cycle if the waker ticks later in registration order than the
// woken component, or within the current cycle otherwise — exactly when
// the naive engine would next observe the stimulus. Waking a component
// that has a calendar heap entry (an answer more than one cycle ahead)
// removes the entry and makes the component due at that same slot — a
// query-only perturbation (the re-query either ticks the component,
// exactly as the naive engine would, or reschedules it), which is what
// lets stimulus invalidate a previously reported future event: an
// IP.Submit while only a far-off completion was scheduled, for example.
// Waking a component that is already due is a cheap no-op, so stimulus
// entry points may call it unconditionally.
func (h Handle) Wake() {
	if h.eng != nil {
		h.eng.wake(h.idx)
	}
}

// wake implements Handle.Wake and Engine.Wake for component index i.
// A component already due this cycle or next is queried no later than
// the wake slot, so it needs nothing; the naive path keeps no calendar.
func (e *Engine) wake(i int) {
	if e.mode == ModeNaive {
		return
	}
	if e.dormant[i] {
		e.dormant[i] = false
		e.nDormant--
	} else if !e.cal.remove(i) {
		return
	}
	// The wake slot: the cycle being executed when i's tick slot is still
	// ahead of the waker's, the next cycle otherwise. Between cycles
	// (ticking false) due holds the components due at e.now, the next
	// cycle to execute.
	if e.ticking && i <= e.curIdx {
		e.next[i>>6] |= 1 << uint(i&63)
	} else {
		e.due[i>>6] |= 1 << uint(i&63)
	}
}

// Waker is the stimulus-notification half of the wake API: anything that
// can mark a component runnable. Handle implements it; components keep a
// Waker rather than a Handle so tests can substitute their own.
type Waker interface {
	Wake()
}

// WakeSink is implemented by components that cache their engine Handle
// for self-wakes on external stimulus. Register attaches the component's
// own Handle automatically, so assembly code never wires wakers by hand.
type WakeSink interface {
	AttachWaker(w Waker)
}

// Reserve makes room for n more components, so registering them grows
// none of the engine's per-component state.
func (e *Engine) Reserve(n int) {
	e.comps = slices.Grow(e.comps, n)
	e.names = slices.Grow(e.names, n)
	e.idle = slices.Grow(e.idle, n)
	e.skip = slices.Grow(e.skip, n)
	e.lastTick = slices.Grow(e.lastTick, n)
	e.dormant = slices.Grow(e.dormant, n)
	e.ticks = slices.Grow(e.ticks, n)
	e.cal.at = slices.Grow(e.cal.at, n)
	e.cal.pos = slices.Grow(e.cal.pos, n)
	words := (len(e.comps)+n+63)/64 - len(e.due)
	e.always = slices.Grow(e.always, words)
	e.due = slices.Grow(e.due, words)
	e.next = slices.Grow(e.next, words)
}

// Register adds a component to the tick order and returns its Handle.
// Components are ticked in registration order each cycle; registration
// order is therefore part of the machine definition and must be
// deterministic. If the component implements WakeSink its own Handle is
// attached before Register returns.
func (e *Engine) Register(name string, c Component) Handle {
	if c == nil {
		panic("sim: Register called with nil component")
	}
	e.comps = append(e.comps, c)
	e.names = append(e.names, name)
	ic, _ := c.(IdleComponent)
	e.idle = append(e.idle, ic)
	sa, _ := c.(SkipAware)
	e.skip = append(e.skip, sa)
	e.lastTick = append(e.lastTick, -1)
	e.dormant = append(e.dormant, false)
	e.ticks = append(e.ticks, 0)
	e.cal.grow()
	i := len(e.comps) - 1
	w, bit := i>>6, uint64(1)<<uint(i&63)
	if w == len(e.due) {
		e.always = append(e.always, 0)
		e.due = append(e.due, 0)
		e.next = append(e.next, 0)
	}
	if ic == nil {
		// No quiescence view: ticked at every executed cycle.
		e.always[w] |= bit
	} else if e.mode != ModeNaive {
		if e.ticking {
			// Mid-cycle registration joins from the next cycle, matching
			// the naive path's snapshot of the component slice.
			e.next[w] |= bit
		} else {
			e.due[w] |= bit
		}
	}
	h := Handle{eng: e, idx: i}
	if ws, ok := c.(WakeSink); ok {
		ws.AttachWaker(h)
	}
	return h
}

// Wake marks a component runnable; equivalent to h.Wake(). The zero
// Handle is valid and inert here exactly as for Handle.Wake: waking it
// is a no-op, so unit-test doubles built without an engine pass through
// unharmed. A Handle from a different engine still panics.
func (e *Engine) Wake(h Handle) {
	if h.eng == nil {
		return
	}
	if h.eng != e {
		panic("sim: Wake with a Handle from a different engine")
	}
	h.Wake()
}

// Components reports the number of registered components.
func (e *Engine) Components() int { return len(e.comps) }

// ComponentName returns the name of the component registered at index
// i, in tick order.
func (e *Engine) ComponentName(i int) string { return e.names[i] }

// Ticks reports how many times the component registered at index i (the
// ComponentName order) has been ticked, on either engine path. It is a
// diagnostic like SkippedTicks, with which it conserves component slots:
// on the wake-cached path the sum over components plus SkippedTicks is
// Components() x (Now - FastForwarded); on the naive path the sum alone
// is Components() x Now.
func (e *Engine) Ticks(i int) int64 { return e.ticks[i] }

// Now returns the current cycle. During a tick, Now reports the cycle
// being executed.
func (e *Engine) Now() Cycle { return e.now }

// Step advances the simulation by exactly one cycle. On the wake-cached
// path components reporting no work for this cycle are skipped but time
// never jumps; on the naive path every component is ticked.
func (e *Engine) Step() {
	if e.mode != ModeNaive {
		e.advance(e.now + 1)
		return
	}
	e.maybeSample()
	e.ticking = true
	for i, c := range e.comps {
		c.Tick(e.now)
		e.ticks[i]++
	}
	e.ticking = false
	e.now++
}

// MidCycle reports whether the engine is inside the component loop of
// the current cycle. Counter reads taken mid-cycle observe a mixture of
// before- and after-tick state that depends on the caller's tick-slot
// position; the telemetry sampler uses this to downgrade mid-cycle
// phase marks to label-only records so both engine paths stay
// bit-identical.
func (e *Engine) MidCycle() bool { return e.ticking }

// advance executes the cycle at e.now on the wake-cached path, then
// moves time forward: by one cycle normally, or in a single jump to the
// wake calendar's minimum when no component had work, capped at limit.
// The cycle's candidates are the due set — components the previous
// cycle scheduled for this one, calendar entries whose cycle has
// arrived, and the always-active components — scanned in ascending bit
// order, which is registration order, so tick order is bit-identical to
// the naive scan. Each candidate's NextEvent is queried at its own slot,
// never from a snapshot: stimulus generated by an earlier-in-order
// component the same cycle is observed exactly as on the naive path,
// because a mid-cycle Wake sets the woken component's bit in this
// cycle's set when its slot is still ahead (the scan re-reads the word
// and picks it up in order) and in the next cycle's set otherwise.
//
// A queried component is then rescheduled by its answer: into the next
// cycle's set after a tick (re-querying each executed cycle is what the
// naive path observes) or on an answer of now+1, onto the heap for an
// answer further ahead, or into the dormant set on Never. A jump happens
// only when no component ticked at all, which guarantees every calendar
// entry is still valid.
func (e *Engine) advance(limit Cycle) {
	e.maybeSample()
	now := e.now
	// Diagnostics mirror the scan engine's: every registered component
	// either ticks at an executed cycle or counts as an elided tick, and
	// each component dormant as the cycle begins counts a dormant skip.
	e.DormantSkips += int64(e.nDormant)
	for !e.cal.empty() && e.cal.minAt() <= now {
		i := e.cal.popMin()
		e.due[i>>6] |= 1 << uint(i&63)
	}
	for w, a := range e.always {
		e.due[w] |= a
	}
	nTicked := 0
	e.ticking = true
	// The word is re-read after every candidate: a Wake during the slot
	// may set a later bit in it, or in a later word, and registration
	// mid-cycle may grow the sets.
	for w := 0; w < len(e.due); w++ {
		for e.due[w] != 0 {
			m := e.due[w]
			b := bits.TrailingZeros64(m)
			e.due[w] = m & (m - 1)
			idx := w<<6 | b
			e.curIdx = idx
			if ic := e.idle[idx]; ic != nil {
				ne := ic.NextEvent(now)
				if ne > now {
					if ne == Never {
						e.dormant[idx] = true
						e.nDormant++
					} else if ne == now+1 {
						e.next[w] |= 1 << uint(b)
					} else {
						e.cal.push(idx, ne)
					}
					continue
				}
				// Ticked components are due again next cycle: the re-query
				// at their next slot is exactly what the scan engine did
				// every executed cycle, and it keeps stale answers
				// impossible.
				e.next[w] |= 1 << uint(b)
			}
			if sa := e.skip[idx]; sa != nil && e.lastTick[idx]+1 < now {
				sa.SkipCycles(e.lastTick[idx]+1, now)
			}
			e.lastTick[idx] = now
			e.comps[idx].Tick(now)
			e.ticks[idx]++
			nTicked++
		}
	}
	e.curIdx = -1
	e.ticking = false
	e.SkippedTicks += int64(len(e.comps) - nTicked)
	// The scan emptied due; the next cycle's set becomes the due set.
	e.due, e.next = e.next, e.due
	if nTicked == 0 {
		target := Never
		if anySet(e.due) {
			// A component answered now+1 without ticking: the next cycle
			// is pinned even though the calendar heap does not hold it.
			target = now + 1
		} else if !e.cal.empty() {
			target = e.cal.minAt()
		}
		if target > limit {
			target = limit
		}
		// Land exactly on the next sample boundary so the probe observes
		// it; the landing queries the due candidates but ticks nothing.
		if target > e.nextSample {
			target = e.nextSample
		}
		if target > now+1 {
			e.FastForwarded += int64(target - now - 1)
			e.now = target
			return
		}
	}
	e.now++
}

// anySet reports whether a bitset has any bit set.
func anySet(set []uint64) bool {
	for _, w := range set {
		if w != 0 {
			return true
		}
	}
	return false
}

// Settle flushes deferred skip accounting: every SkipAware component is
// credited for the cycles [lastTick+1, now) the engine never executed for
// it. Run and RunUntil call this on return; callers driving Step directly
// must call it before reading skip-accrued counters. On the naive path
// there is never anything deferred (lastTick is not maintained there),
// so Settle is a no-op.
func (e *Engine) Settle() {
	if e.mode == ModeNaive {
		return
	}
	for i, sa := range e.skip {
		if sa == nil {
			continue
		}
		if e.lastTick[i]+1 < e.now {
			sa.SkipCycles(e.lastTick[i]+1, e.now)
		}
		if e.lastTick[i] < e.now-1 {
			e.lastTick[i] = e.now - 1
		}
	}
}

// Run advances the simulation by n cycles.
func (e *Engine) Run(n Cycle) {
	end := e.now + n
	if e.mode == ModeNaive {
		for e.now < end {
			e.Step()
		}
		return
	}
	for e.now < end {
		e.advance(end)
	}
	e.Settle()
}

// ErrDeadline is returned by RunUntil when the predicate does not become
// true within the cycle budget.
var ErrDeadline = errors.New("sim: deadline exceeded before condition held")

// RunUntil steps the engine until done() reports true, checking before
// each cycle, or until max cycles have elapsed from the current time. It
// returns the cycle at which the condition first held. The done predicate
// must depend only on simulated state: between executed cycles nothing
// changes, so the fast path checks it exactly as often as it can change.
func (e *Engine) RunUntil(done func() bool, max Cycle) (Cycle, error) {
	deadline := e.now + max
	if e.mode == ModeNaive {
		for !done() {
			if e.now >= deadline {
				return e.now, e.deadlineErr(max)
			}
			e.Step()
		}
		return e.now, nil
	}
	for !done() {
		if e.now >= deadline {
			e.Settle()
			return e.now, e.deadlineErr(max)
		}
		e.advance(deadline)
	}
	e.Settle()
	return e.now, nil
}

// deadlineErr builds the RunUntil timeout error. When the dormant set is
// non-empty and no other component has an event scheduled, the machine
// can never make progress again — the classic symptom of a stimulus entry
// point that forgot to call Wake — so the error names every dormant
// component to make the missing call diagnosable. Components reporting an
// unrecoverable fault (FaultReporter) are appended with their reasons, so
// a run wedged by an exhausted retry names the component and the pending
// request instead of timing out silently.
func (e *Engine) deadlineErr(max Cycle) error {
	var detail []string
	if stuck := e.stuckDormant(); len(stuck) > 0 {
		detail = append(detail, "no event scheduled, dormant components awaiting Wake: "+strings.Join(stuck, ", "))
	}
	if faulted := e.faulted(); len(faulted) > 0 {
		detail = append(detail, "faulted: "+strings.Join(faulted, "; "))
	}
	if len(detail) > 0 {
		return fmt.Errorf("%w (budget %d cycles; %s)", ErrDeadline, max, strings.Join(detail, "; "))
	}
	return fmt.Errorf("%w (budget %d cycles)", ErrDeadline, max)
}

// faulted collects "name: reason" for every component reporting an
// unrecoverable fault, in tick order.
func (e *Engine) faulted() []string {
	var out []string
	for i, c := range e.comps {
		if fr, ok := c.(FaultReporter); ok {
			if r := fr.FaultReason(); r != "" {
				out = append(out, e.names[i]+": "+r)
			}
		}
	}
	return out
}

// stuckDormant returns the names of dormant components when they are
// provably the only possible source of progress: at least one component
// is dormant and nothing else is scheduled anywhere — no always-active
// component, no due component and no calendar entry. The decision reads
// only the engine's own scheduling state; it never re-queries
// NextEvent, so a failed RunUntil cannot reinsert, reschedule, or
// otherwise perturb a component — the engine is left bit-identical for
// diagnosis or resume.
func (e *Engine) stuckDormant() []string {
	if e.nDormant == 0 {
		return nil
	}
	if anySet(e.always) || anySet(e.due) || !e.cal.empty() {
		return nil
	}
	names := make([]string, 0, e.nDormant)
	for i := range e.comps {
		if e.dormant[i] {
			names = append(names, e.names[i])
		}
	}
	return names
}

// CheckDormant re-queries every dormant component's NextEvent at the
// current cycle and returns an error naming each one whose answer is no
// longer Never: stimulus reached it without a Wake, so the wake-cached
// path will not tick it where the naive path does. It pinpoints a
// missing Wake at its source, where an engine-equivalence test only
// shows a fingerprint diff later; call it between cycles (a Probe's
// SampleNow is the natural hook). The check leaves the engine's
// scheduling state untouched and is nil on the naive path, which keeps
// no dormant set.
func (e *Engine) CheckDormant() error {
	var missed []string
	for i, d := range e.dormant {
		if !d {
			continue
		}
		if ne := e.idle[i].NextEvent(e.now); ne != Never {
			missed = append(missed, fmt.Sprintf("%s (NextEvent %d)", e.names[i], ne))
		}
	}
	if len(missed) == 0 {
		return nil
	}
	return fmt.Errorf("sim: cycle %d: dormant components have work but were never woken: %s",
		e.now, strings.Join(missed, ", "))
}

// Rand is a small deterministic pseudo-random source (xorshift64*) used by
// workload generators. It is intentionally independent of math/rand so
// that workloads are reproducible across Go releases.
type Rand struct{ s uint64 }

// NewRand returns a generator seeded with seed (zero is remapped).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{s: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}
