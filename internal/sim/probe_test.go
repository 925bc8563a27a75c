package sim

import "testing"

// recProbe records the cycles at which the engine delivered samples.
type recProbe struct {
	every Cycle
	got   []Cycle
}

func (p *recProbe) NextSample(now Cycle) Cycle {
	if now <= 0 {
		return 0
	}
	return ((now + p.every - 1) / p.every) * p.every
}

func (p *recProbe) SampleNow(now Cycle) { p.got = append(p.got, now) }

// napper is idle until wake, then ticks forever.
type napper struct {
	wake  Cycle
	ticks []Cycle
}

func (s *napper) Tick(now Cycle)            { s.ticks = append(s.ticks, now) }
func (s *napper) NextEvent(now Cycle) Cycle { return s.wake }

// TestProbelessEngineStillJumps guards the probe plumbing's default: an
// engine with no probe installed must fast-forward a quiet span in one
// jump, not be clamped by an uninitialized sample boundary.
func TestProbelessEngineStillJumps(t *testing.T) {
	e := New()
	s := &napper{wake: 1000}
	e.Register("s", s)
	e.Run(1000)
	if e.FastForwarded != 999 {
		t.Fatalf("FastForwarded = %d, want 999 (single jump over the quiet span)", e.FastForwarded)
	}
	if len(s.ticks) != 0 {
		t.Fatalf("napper ticked %d times before its wake cycle", len(s.ticks))
	}
}

// TestProbeBoundariesInsideJump: with a probe installed the engine lands
// on every sample boundary inside a fast-forwarded span, delivers the
// sample, and still never ticks the idle component.
func TestProbeBoundariesInsideJump(t *testing.T) {
	e := New()
	s := &napper{wake: 95}
	e.Register("s", s)
	p := &recProbe{every: 10}
	e.SetProbe(p)
	e.Run(100)
	want := []Cycle{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}
	if len(p.got) != len(want) {
		t.Fatalf("samples at %v, want %v", p.got, want)
	}
	for i := range want {
		if p.got[i] != want[i] {
			t.Fatalf("samples at %v, want %v", p.got, want)
		}
	}
	if len(s.ticks) == 0 || s.ticks[0] != 95 {
		t.Fatalf("napper first tick = %v, want wake at 95", s.ticks)
	}
}

// TestJumpLandsExactlyOnSampleBoundary: when the calendar's minimum
// coincides with a probe sample boundary, the jump must land there once —
// delivering the sample AND ticking the due component at that cycle, with
// no duplicate sample and no overshoot.
func TestJumpLandsExactlyOnSampleBoundary(t *testing.T) {
	e := New()
	s := &napper{wake: 90}
	e.Register("s", s)
	p := &recProbe{every: 30}
	e.SetProbe(p)
	e.Run(100)
	wantSamples := []Cycle{0, 30, 60, 90}
	if len(p.got) != len(wantSamples) {
		t.Fatalf("samples at %v, want %v", p.got, wantSamples)
	}
	for i := range wantSamples {
		if p.got[i] != wantSamples[i] {
			t.Fatalf("samples at %v, want %v", p.got, wantSamples)
		}
	}
	if len(s.ticks) == 0 || s.ticks[0] != 90 {
		t.Fatalf("napper first tick = %v, want exactly the boundary cycle 90", s.ticks)
	}
	// Three jumps (0→30, 30→60, 60→90), each eliding 29 quiet cycles.
	if e.FastForwarded != 87 {
		t.Fatalf("FastForwarded = %d, want 87 (three 29-cycle jumps landing on boundaries)", e.FastForwarded)
	}
}

// TestSetProbeNilRestoresJumps: removing the probe restores unclamped
// fast-forwarding.
func TestSetProbeNilRestoresJumps(t *testing.T) {
	e := New()
	s := &napper{wake: Never}
	e.Register("s", s)
	e.SetProbe(&recProbe{every: 10})
	e.SetProbe(nil)
	e.Run(500)
	if e.FastForwarded != 499 {
		t.Fatalf("FastForwarded = %d, want 499 after probe removal", e.FastForwarded)
	}
}

// TestNaiveSettleIsNoop: the naive path never defers skip accounting, so
// Settle must not invent SkipCycles credit there.
func TestNaiveSettleIsNoop(t *testing.T) {
	e := New()
	e.SetMode(ModeNaive)
	c := &skipCounter{}
	e.Register("c", c)
	e.Run(50)
	e.Settle()
	if c.skipped != 0 {
		t.Fatalf("naive-path Settle credited %d skipped cycles", c.skipped)
	}
	if c.ticks != 50 {
		t.Fatalf("naive path ticked %d cycles, want 50", c.ticks)
	}
}

type skipCounter struct {
	ticks   int64
	skipped int64
}

func (c *skipCounter) Tick(now Cycle)            { c.ticks++ }
func (c *skipCounter) NextEvent(now Cycle) Cycle { return Never }
func (c *skipCounter) SkipCycles(from, to Cycle) { c.skipped += int64(to - from) }
