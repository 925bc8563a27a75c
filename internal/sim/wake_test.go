package sim

import (
	"errors"
	"strings"
	"testing"
)

// doorbell is the canonical wake-API client: fully passive until Ring
// delivers external stimulus, which wakes its engine handle. It counts
// NextEvent queries so tests can assert Never was cached.
type doorbell struct {
	waker   Waker
	pending int
	ticksAt []Cycle
	queries int
}

func (d *doorbell) AttachWaker(w Waker) { d.waker = w }

func (d *doorbell) Ring() {
	d.pending++
	if d.waker != nil {
		d.waker.Wake()
	}
}

func (d *doorbell) NextEvent(now Cycle) Cycle {
	d.queries++
	if d.pending > 0 {
		return now
	}
	return Never
}

func (d *doorbell) Tick(now Cycle) {
	if d.pending > 0 {
		d.pending--
		d.ticksAt = append(d.ticksAt, now)
	}
}

func TestDormantComponentQueriedOnce(t *testing.T) {
	e := New()
	if e.Mode() != ModeWakeCached {
		t.Fatalf("new engine mode = %v, want wake-cached default", e.Mode())
	}
	d := &doorbell{}
	e.Register("bell", d)
	// A plain component keeps every cycle executing, so the dormant bell
	// would be re-queried 100 times without caching.
	e.Register("busy", ComponentFunc(func(Cycle) {}))
	e.Run(100)
	if d.queries != 1 {
		t.Fatalf("dormant component queried %d times over 100 executed cycles, want 1", d.queries)
	}
	if e.DormantSkips != 99 {
		t.Fatalf("DormantSkips = %d, want 99", e.DormantSkips)
	}
}

// TestCheckDormantNamesMissedWake: stimulus that reaches a dormant
// component without a Wake is exactly the bug CheckDormant exists to
// pinpoint — it must name that component and only it, change nothing
// about the schedule, and go quiet once the Wake arrives.
func TestCheckDormantNamesMissedWake(t *testing.T) {
	e := New()
	quiet, bell := &doorbell{}, &doorbell{}
	e.Register("cluster0/ce0", quiet)
	e.Register("cluster0/ce1", bell)
	e.Register("busy", ComponentFunc(func(Cycle) {}))
	e.Run(10) // both bells dormant
	if err := e.CheckDormant(); err != nil {
		t.Fatalf("CheckDormant with no pending stimulus: %v", err)
	}
	bell.pending++ // stimulus without a Wake
	err := e.CheckDormant()
	if err == nil || !strings.Contains(err.Error(), "cluster0/ce1") {
		t.Fatalf("CheckDormant = %v, want an error naming cluster0/ce1", err)
	}
	if strings.Contains(err.Error(), "cluster0/ce0") {
		t.Fatalf("CheckDormant %q names the bell that had no stimulus", err)
	}
	// Read-only: the bell stays dormant, so the missed wake stays missed.
	e.Run(10)
	if len(bell.ticksAt) != 0 {
		t.Fatalf("bell ticked at %v; CheckDormant must not wake it", bell.ticksAt)
	}
	bell.waker.Wake()
	if err := e.CheckDormant(); err != nil {
		t.Fatalf("CheckDormant after the Wake: %v", err)
	}
	e.Run(10)
	if len(bell.ticksAt) != 1 || bell.ticksAt[0] != 20 {
		t.Fatalf("bell ticked at %v after the late Wake, want [20]", bell.ticksAt)
	}
	naive := New()
	naive.SetMode(ModeNaive)
	nb := &doorbell{}
	naive.Register("bell", nb)
	naive.Run(10)
	nb.pending++
	if err := naive.CheckDormant(); err != nil {
		t.Fatalf("naive CheckDormant = %v, want nil (no dormant set)", err)
	}
}

func TestWakeRevivesDormantComponent(t *testing.T) {
	for _, mode := range []EngineMode{ModeWakeCached, ModeNaive} {
		e := New()
		e.SetMode(mode)
		d := &doorbell{}
		e.Register("bell", d)
		e.Register("busy", ComponentFunc(func(Cycle) {}))
		e.Run(50) // bell dormant from cycle 0
		d.Ring()  // external stimulus between cycles
		e.Run(50)
		if len(d.ticksAt) != 1 || d.ticksAt[0] != 50 {
			t.Fatalf("mode %v: bell ticked at %v, want exactly [50]", mode, d.ticksAt)
		}
	}
}

// ringer rings a doorbell during its own tick at a fixed cycle,
// modelling stimulus generated mid-cycle by another component.
type ringer struct {
	at   Cycle
	bell *doorbell
}

func (r *ringer) Tick(now Cycle) {
	if now == r.at {
		r.bell.Ring()
	}
}

func TestMidCycleWakeOrderingMatchesNaive(t *testing.T) {
	// A wake from an earlier tick slot reaches the woken component's own
	// slot in the same cycle; a wake from a later slot lands next cycle.
	// Both must agree with the naive engine exactly.
	for _, bellFirst := range []bool{false, true} {
		var ticksAt [][]Cycle
		for _, mode := range []EngineMode{ModeWakeCached, ModeNaive} {
			e := New()
			e.SetMode(mode)
			d := &doorbell{}
			r := &ringer{at: 10, bell: d}
			if bellFirst {
				e.Register("bell", d)
				e.Register("ringer", r)
			} else {
				e.Register("ringer", r)
				e.Register("bell", d)
			}
			e.Run(20)
			ticksAt = append(ticksAt, d.ticksAt)
		}
		want := Cycle(10) // ringer earlier in order: same cycle
		if bellFirst {
			want = 11 // ringer later in order: next cycle
		}
		for i, ta := range ticksAt {
			if len(ta) != 1 || ta[0] != want {
				t.Fatalf("bellFirst=%v: mode #%d ticked at %v, want [%d] (all: %v)",
					bellFirst, i, ta, want, ticksAt)
			}
		}
	}
}

func TestRegisterReturnsUsableHandle(t *testing.T) {
	e := New()
	d := &doorbell{} // AttachWaker gives d its own handle, but use ours
	h := e.Register("bell", d)
	e.Register("busy", ComponentFunc(func(Cycle) {}))
	e.Run(10)
	d.pending++ // stimulate without the component's own waker
	e.Wake(h)
	e.Run(10)
	if len(d.ticksAt) != 1 || d.ticksAt[0] != 10 {
		t.Fatalf("bell ticked at %v after Engine.Wake, want [10]", d.ticksAt)
	}
}

func TestZeroHandleWakeIsNoOp(t *testing.T) {
	var h Handle
	h.Wake() // must not panic: unregistered unit-test components hold one
}

func TestEngineWakeZeroHandleIsNoOp(t *testing.T) {
	// The Handle docs declare the zero value valid and inert; Engine.Wake
	// must honor that too, not mistake nil for a foreign engine.
	e := New()
	e.Register("busy", ComponentFunc(func(Cycle) {}))
	e.Wake(Handle{}) // must not panic
	e.Run(1)
}

// deferral models the IP.Submit hazard: a component holding a far-future
// completion whose answer is invalidated by an earlier request arriving
// mid-run. Submit wakes the component, which must pull its calendar
// entry forward — sleeping to the stale answer would diverge from naive.
type deferral struct {
	waker   Waker
	doneAt  Cycle
	ticksAt []Cycle
}

func (f *deferral) AttachWaker(w Waker) { f.waker = w }

func (f *deferral) Submit(at Cycle) {
	if at < f.doneAt {
		f.doneAt = at
	}
	if f.waker != nil {
		f.waker.Wake()
	}
}

func (f *deferral) NextEvent(now Cycle) Cycle {
	if f.doneAt < now {
		return now
	}
	return f.doneAt
}

func (f *deferral) Tick(now Cycle) {
	if now == f.doneAt {
		f.ticksAt = append(f.ticksAt, now)
		f.doneAt = Never
	}
}

func TestWakeReschedulesEarlierEvent(t *testing.T) {
	// The component first answers 500, then stimulus at cycle 20 makes 60
	// its real next event. Every mode must tick it at exactly 60.
	for _, mode := range []EngineMode{ModeWakeCached, ModeNaive} {
		e := New()
		e.SetMode(mode)
		f := &deferral{doneAt: 500}
		e.Register("ip", f)
		e.Register("busy", ComponentFunc(func(Cycle) {}))
		e.Run(20)
		f.Submit(60) // invalidates the cached 500 answer
		e.Run(480)
		if len(f.ticksAt) != 1 || f.ticksAt[0] != 60 {
			t.Fatalf("mode %v: ticks at %v, want [60] — stale calendar entry slept past the earlier event", mode, f.ticksAt)
		}
	}
}

func TestWakeForeignHandlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Engine.Wake with another engine's handle did not panic")
		}
	}()
	a, b := New(), New()
	h := a.Register("x", &doorbell{})
	b.Wake(h)
}

func TestDeadlineListsStuckDormantComponents(t *testing.T) {
	e := New()
	e.Register("cluster0/ce0", &doorbell{})
	e.Register("cluster0/ce1", &doorbell{})
	_, err := e.RunUntil(func() bool { return false }, 50)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	for _, name := range []string{"cluster0/ce0", "cluster0/ce1"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("deadline error %q does not name dormant component %s", err, name)
		}
	}
	if !strings.Contains(err.Error(), "Wake") {
		t.Fatalf("deadline error %q does not point at the missing Wake call", err)
	}
}

func TestDeadlineSilentWhenProgressPossible(t *testing.T) {
	// An always-active component means the machine can still move, so the
	// dormant list would be noise: a doorbell stays dormant forever next
	// to a busy component in any long-running machine.
	e := New()
	e.Register("bell", &doorbell{})
	e.Register("busy", ComponentFunc(func(Cycle) {}))
	_, err := e.RunUntil(func() bool { return false }, 50)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if strings.Contains(err.Error(), "dormant") {
		t.Fatalf("deadline error %q blames dormancy while an active component exists", err)
	}
	// Same when a scheduled future event exists past the deadline.
	e2 := New()
	e2.Register("bell", &doorbell{})
	e2.Register("alarm", &alarm{at: 1000})
	_, err = e2.RunUntil(func() bool { return false }, 50)
	if err == nil || strings.Contains(err.Error(), "dormant") {
		t.Fatalf("deadline error %v blames dormancy while an event is scheduled", err)
	}
}

func TestSetModeClearsDormancy(t *testing.T) {
	e := New()
	d := &doorbell{}
	e.Register("bell", d)
	e.Register("busy", ComponentFunc(func(Cycle) {}))
	e.Run(10) // bell is now dormant
	// Switching paths must drop cached dormancy: the calendar is rebuilt
	// with every component due, so even a stimulus without a Wake is
	// observed at the first cycle after the switch.
	e.SetMode(ModeNaive)
	e.SetMode(ModeWakeCached)
	d.pending++ // no Wake on purpose
	if err := e.CheckDormant(); err != nil {
		t.Fatalf("dormancy survived the mode switch: %v", err)
	}
	e.Run(10)
	if len(d.ticksAt) != 1 || d.ticksAt[0] != 10 {
		t.Fatalf("bell ticked at %v after mode switch, want [10]", d.ticksAt)
	}
}

func TestModeStrings(t *testing.T) {
	cases := map[EngineMode]string{
		ModeWakeCached: "wake-cached",
		ModeNaive:      "naive",
		EngineMode(9):  "EngineMode(9)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Fatalf("EngineMode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}
