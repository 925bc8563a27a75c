package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestDeadlineNamesExactParkedSet forces a missed wake — stimulus arrives
// without the matching Wake call — and asserts the deadline error lists
// exactly the parked components, in registration order, so the diagnosis
// points at the right stimulus entry point.
func TestDeadlineNamesExactParkedSet(t *testing.T) {
	e := New()
	bells := []*doorbell{{}, {}, {}}
	names := []string{"cluster0/ce0", "cluster0/pfu0", "cluster1/ce0"}
	for i, d := range bells {
		e.Register(names[i], d)
	}
	e.Run(10) // all three park (NextEvent = Never)
	// The forced missed wake: stimulate the middle component directly,
	// bypassing Ring's Wake. The naive engine would tick it next cycle;
	// the wake-cached engine can never observe it again.
	bells[1].pending++
	_, err := e.RunUntil(func() bool { return bells[1].pending == 0 }, 100)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if len(bells[1].ticksAt) != 0 {
		t.Fatalf("stranded component ticked at %v; the wake was supposed to be missed", bells[1].ticksAt)
	}
	// The error must list the actually-parked set — all three components,
	// in registration order — not a subset and not extras.
	want := "dormant components awaiting Wake: " + strings.Join(names, ", ")
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("deadline error %q does not list the exact parked set %q", err, want)
	}
}

// sickly is a FaultReporter test double: always ticking (never parks),
// reporting a fault reason once set.
type sickly struct {
	reason string
}

func (s *sickly) Tick(Cycle) {}

func (s *sickly) FaultReason() string { return s.reason }

func TestDeadlineReportsFaultReasons(t *testing.T) {
	e := New()
	sick := &sickly{reason: "request for word 0x2a0 unanswered after 4 reissues"}
	well := &sickly{}
	e.Register("pfu3", sick)
	e.Register("pfu4", well)
	_, err := e.RunUntil(func() bool { return false }, 50)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !strings.Contains(err.Error(), "pfu3: request for word 0x2a0 unanswered after 4 reissues") {
		t.Fatalf("deadline error %q does not name the faulted component and pending request", err)
	}
	if strings.Contains(err.Error(), "pfu4") {
		t.Fatalf("deadline error %q names the healthy component", err)
	}
}

// TestDeadlineFaultAndDormantCompose checks both diagnostics appear when a
// fault strands the machine with other components parked.
func TestDeadlineFaultAndDormantCompose(t *testing.T) {
	e := New()
	d := &doorbell{}
	e.Register("bell", d)
	// A faulted component that also parks: models an exhausted retrier
	// with nothing left scheduled.
	sick := &parkedSick{reason: "gave up"}
	e.Register("unit", sick)
	_, err := e.RunUntil(func() bool { return false }, 50)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "awaiting Wake") || !strings.Contains(msg, "unit: gave up") {
		t.Fatalf("deadline error %q missing dormant or fault detail", err)
	}
}

type parkedSick struct{ reason string }

func (p *parkedSick) Tick(Cycle) {}

func (p *parkedSick) NextEvent(Cycle) Cycle { return Never }

func (p *parkedSick) FaultReason() string { return p.reason }

// schedState captures every piece of engine scheduling state the error
// path could possibly perturb.
type schedState struct {
	now                 Cycle
	skipped, ffwd, dorm int64
	dormant             []bool
	nDormant            int
	calHeap             []int
	calAt               []Cycle
	nextDue             []int
	lastTick            []Cycle
}

func snapshot(e *Engine) schedState {
	s := schedState{
		now: e.now, skipped: e.SkippedTicks, ffwd: e.FastForwarded, dorm: e.DormantSkips,
		nDormant: e.nDormant,
		dormant:  append([]bool(nil), e.dormant...),
		calHeap:  append([]int(nil), e.cal.heap...),
		nextDue:  append([]int(nil), e.nextDue...),
		lastTick: append([]Cycle(nil), e.lastTick...),
	}
	for _, i := range e.cal.heap {
		s.calAt = append(s.calAt, e.cal.at[i])
	}
	return s
}

// TestFailedRunUntilLeavesStateIntact pins the error path's contract: a
// RunUntil that times out must leave the engine bit-identical to a plain
// Run over the same span — in particular the deadline diagnosis must not
// re-query NextEvent, reinsert calendar entries, or disturb dormancy.
func TestFailedRunUntilLeavesStateIntact(t *testing.T) {
	build := func() (*Engine, []*doorbell) {
		e := New()
		bells := []*doorbell{{}, {}}
		e.Register("bell0", bells[0])
		e.Register("alarm", &alarm{at: 30})
		e.Register("bell1", bells[1])
		return e, bells
	}
	ref, refBells := build()
	ref.Run(50)
	got, gotBells := build()
	if _, err := got.RunUntil(func() bool { return false }, 50); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	want, have := snapshot(ref), snapshot(got)
	if !reflect.DeepEqual(want, have) {
		t.Fatalf("failed RunUntil perturbed engine state\n run: %+v\nuntil: %+v", want, have)
	}
	for i := range refBells {
		if refBells[i].queries != gotBells[i].queries {
			t.Fatalf("bell%d queried %d times via RunUntil, %d via Run — error path re-queried NextEvent",
				i, gotBells[i].queries, refBells[i].queries)
		}
	}
	// The engine must remain fully usable: a Wake after the failed
	// RunUntil revives the component exactly as usual.
	gotBells[0].Ring()
	got.Run(10)
	if ta := gotBells[0].ticksAt; len(ta) != 1 || ta[0] != 50 {
		t.Fatalf("bell0 ticked at %v after post-deadline Wake, want [50]", ta)
	}
}
