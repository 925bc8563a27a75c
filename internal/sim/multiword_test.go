package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// tickRec is one working tick: the cycle and the registration index.
type tickRec struct {
	at  Cycle
	idx int
}

// traceBell is a doorbell that logs its working ticks into a trace
// shared by every component of the engine.
type traceBell struct {
	doorbell
	idx   int
	trace *[]tickRec
}

func (b *traceBell) Tick(now Cycle) {
	if b.pending > 0 {
		*b.trace = append(*b.trace, tickRec{now, b.idx})
	}
	b.doorbell.Tick(now)
}

// traceDeferral is a deferral that logs its completion tick.
type traceDeferral struct {
	deferral
	idx   int
	trace *[]tickRec
}

func (f *traceDeferral) Tick(now Cycle) {
	if now == f.doneAt {
		*f.trace = append(*f.trace, tickRec{now, f.idx})
	}
	f.deferral.Tick(now)
}

// script runs act[k] from its own tick slot at cycle at[k] (ascending),
// answering NextEvent with its next cycle so the calendar heap holds it
// in between.
type script struct {
	at   []Cycle
	act  []func()
	next int
}

func (s *script) NextEvent(now Cycle) Cycle {
	if s.next < len(s.at) {
		return max(s.at[s.next], now)
	}
	return Never
}

func (s *script) Tick(now Cycle) {
	for s.next < len(s.at) && s.at[s.next] == now {
		s.act[s.next]()
		s.next++
	}
}

// TestMultiWordWakesMatchNaive spreads 140 components over three words
// of the engine's due bitsets and checks the working-tick trace of the
// wake-cached engine against the naive engine's when a component in
// word 0 wakes one in word 2 within the same cycle, when components
// wake ones behind them, which must wait for the next cycle, and when a
// wake pulls a calendar heap entry (an answer more than one cycle ahead)
// forward.
func TestMultiWordWakesMatchNaive(t *testing.T) {
	const n = 140
	run := func(mode EngineMode) ([]tickRec, *Engine) {
		e := New()
		e.SetMode(mode)
		var trace []tickRec
		comps := make([]Component, n)
		bells := make([]*traceBell, n)
		for i := range comps {
			bells[i] = &traceBell{idx: i, trace: &trace}
			comps[i] = bells[i]
		}
		now := &traceDeferral{deferral: deferral{doneAt: 500}, idx: 129, trace: &trace}
		later := &traceDeferral{deferral: deferral{doneAt: 900}, idx: 65, trace: &trace}
		comps[129], comps[65] = now, later
		comps[3] = &script{
			at: []Cycle{10, 20, 30},
			act: []func(){
				func() { bells[130].Ring() },                // word 2, ahead: this cycle
				func() { bells[1].Ring() },                  // behind: next cycle
				func() { now.Submit(30); later.Submit(33) }, // heap entries pulled forward
			},
		}
		comps[135] = &script{
			at:  []Cycle{40},
			act: []func(){func() { bells[70].Ring(); bells[139].Ring() }},
		}
		for i, c := range comps {
			e.Register(fmt.Sprintf("c%d", i), c)
		}
		e.Run(1000)
		return trace, e
	}
	naive, _ := run(ModeNaive)
	fast, e := run(ModeWakeCached)
	want := []tickRec{{10, 130}, {21, 1}, {30, 129}, {33, 65}, {40, 139}, {41, 70}}
	if !reflect.DeepEqual(naive, want) {
		t.Fatalf("naive trace %v, want %v", naive, want)
	}
	if !reflect.DeepEqual(fast, naive) {
		t.Fatalf("wake-cached trace %v, naive %v", fast, naive)
	}
	if e.FastForwarded == 0 || e.DormantSkips == 0 {
		t.Fatalf("wake-cached engine jumped %d cycles and skipped %d dormant ticks, want both", e.FastForwarded, e.DormantSkips)
	}
}
