package sim

import (
	"errors"
	"testing"
)

// pulser is an IdleComponent active only at multiples of period; it
// counts its ticks so tests can assert the engine never skipped an
// active cycle and never executed an idle one.
type pulser struct {
	period Cycle
	ticks  int
	lastAt Cycle
}

func (p *pulser) Tick(now Cycle) {
	if now%p.period != 0 {
		panic("pulser ticked on an idle cycle")
	}
	p.ticks++
	p.lastAt = now
}

func (p *pulser) NextEvent(now Cycle) Cycle {
	r := now % p.period
	if r == 0 {
		return now
	}
	return now + (p.period - r)
}

// sleeper never wants to tick.
type sleeper struct{ ticks int }

func (s *sleeper) Tick(Cycle)                { s.ticks++ }
func (s *sleeper) NextEvent(now Cycle) Cycle { return Never }

func TestQuiescenceDefaultOn(t *testing.T) {
	e := New()
	if e.Mode() != ModeWakeCached {
		t.Fatalf("new engine mode = %v, want the wake-cached fast path", e.Mode())
	}
	e.SetMode(ModeNaive)
	if e.Mode() != ModeNaive {
		t.Fatal("SetMode(ModeNaive) did not disable the fast path")
	}
}

// TestSetModeOnLiveEnginePanics: the mode is chosen on an empty engine;
// once a component has registered or time has moved, SetMode panics.
func TestSetModeOnLiveEnginePanics(t *testing.T) {
	for name, live := range map[string]func(*Engine){
		"registered": func(e *Engine) { e.Register("p", &pulser{period: 10}) },
		"time moved": func(e *Engine) { e.Run(1) },
	} {
		e := New()
		live(e)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: SetMode did not panic", name)
				}
			}()
			e.SetMode(ModeNaive)
		}()
	}
}

func TestFastForwardSkipsIdleSpans(t *testing.T) {
	e := New()
	p := &pulser{period: 100}
	e.Register("p", p)
	e.Run(1000)
	if e.Now() != 1000 {
		t.Fatalf("Now() = %d, want 1000", e.Now())
	}
	if p.ticks != 10 {
		t.Fatalf("pulser ticked %d times, want 10 (cycles 0,100,...,900)", p.ticks)
	}
	if p.lastAt != 900 {
		t.Fatalf("last tick at %d, want 900", p.lastAt)
	}
	if e.FastForwarded == 0 {
		t.Fatal("engine never fast-forwarded across an all-idle span")
	}
	// Only the 10 active cycles and the cycle after each (where the jump
	// decision is made) are executed; the other 980 are elided.
	if e.FastForwarded != 980 {
		t.Fatalf("FastForwarded = %d, want 980", e.FastForwarded)
	}
}

func TestJumpCappedAtRunLimit(t *testing.T) {
	e := New()
	s := &sleeper{}
	e.Register("s", s)
	e.Run(100)
	if e.Now() != 100 {
		t.Fatalf("Now() = %d, want exactly the Run limit 100", e.Now())
	}
	if s.ticks != 0 {
		t.Fatalf("idle component ticked %d times", s.ticks)
	}
}

func TestStepAdvancesExactlyOneCycle(t *testing.T) {
	e := New()
	e.Register("s", &sleeper{})
	for i := 0; i < 3; i++ {
		e.Step()
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %d after 3 Steps, want 3 (Step must never jump)", e.Now())
	}
}

// alarm sleeps until a fixed cycle, ticks once, then sleeps forever.
type alarm struct {
	at    Cycle
	fired bool
}

func (a *alarm) Tick(now Cycle) {
	if now >= a.at {
		a.fired = true
	}
}

func (a *alarm) NextEvent(now Cycle) Cycle {
	if a.fired {
		return Never
	}
	if now < a.at {
		return a.at
	}
	return now
}

func TestRunUntilJumpsToEvent(t *testing.T) {
	e := New()
	a := &alarm{at: 500}
	e.Register("a", a)
	at, err := e.RunUntil(func() bool { return a.fired }, 10000)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if !a.fired || at != 501 {
		t.Fatalf("fired=%v at=%d, want alarm fired with the engine at 501", a.fired, at)
	}
	if e.FastForwarded != 499 {
		t.Fatalf("FastForwarded = %d, want 499 (cycles 1..499 elided)", e.FastForwarded)
	}
}

func TestRunUntilDeadlineExactWithJumps(t *testing.T) {
	e := New()
	e.Register("s", &sleeper{})
	_, err := e.RunUntil(func() bool { return false }, 50)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if e.Now() != 50 {
		t.Fatalf("engine at %d, want exactly the 50-cycle deadline", e.Now())
	}
}

// idleCounter counts busy and idle cycles the way a CE does: the naive
// path counts idle cycles one tick at a time, the fast path is credited
// whole skipped spans through SkipCycles.
type idleCounter struct {
	period     Cycle
	busy, idle int64
}

func (c *idleCounter) Tick(now Cycle) {
	if now%c.period == 0 {
		c.busy++
	} else {
		c.idle++
	}
}

func (c *idleCounter) NextEvent(now Cycle) Cycle {
	r := now % c.period
	if r == 0 {
		return now
	}
	return now + (c.period - r)
}

func (c *idleCounter) SkipCycles(from, to Cycle) { c.idle += int64(to - from) }

func TestSkipAwareCreditingMatchesNaive(t *testing.T) {
	run := func(mode EngineMode) *idleCounter {
		e := New()
		e.SetMode(mode)
		c := &idleCounter{period: 37}
		e.Register("c", c)
		e.Run(1000)
		return c
	}
	naive, fast := run(ModeNaive), run(ModeWakeCached)
	if naive.busy != fast.busy || naive.idle != fast.idle {
		t.Fatalf("counter divergence: naive busy/idle = %d/%d, fast = %d/%d",
			naive.busy, naive.idle, fast.busy, fast.idle)
	}
	if naive.busy+naive.idle != 1000 {
		t.Fatalf("naive counted %d cycles, want 1000", naive.busy+naive.idle)
	}
}

func TestNonIdleComponentAlwaysTicks(t *testing.T) {
	e := New()
	n := 0
	e.Register("plain", ComponentFunc(func(Cycle) { n++ }))
	e.Register("s", &sleeper{})
	e.Run(50)
	if n != 50 {
		t.Fatalf("plain component ticked %d times, want every one of 50 cycles", n)
	}
	if e.FastForwarded != 0 {
		t.Fatal("engine fast-forwarded past a component that is not idle-aware")
	}
}

func TestMultipleIdleComponentsWakeIndependently(t *testing.T) {
	e := New()
	a := &pulser{period: 30}
	b := &pulser{period: 50}
	e.Register("a", a)
	e.Register("b", b)
	e.Run(300)
	if a.ticks != 10 || b.ticks != 6 {
		t.Fatalf("ticks = %d/%d, want 10/6 (multiples of 30 and 50 below 300)", a.ticks, b.ticks)
	}
	if e.SkippedTicks == 0 {
		t.Fatal("no component-ticks were elided at executed cycles")
	}
}
