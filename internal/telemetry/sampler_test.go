package telemetry

import (
	"testing"

	"repro/internal/sim"
)

// worker models a CE-like component for sampler tests: busy (one op per
// cycle) through cycle until-1, idle afterwards. Idle time accrues
// through SkipCycles when the engine elides ticks, exactly like the real
// CE, so fast and naive engine paths must agree bit for bit.
type worker struct {
	until     sim.Cycle
	Ops       int64
	Idle      int64
	TickCalls int64
}

func (w *worker) Tick(now sim.Cycle) {
	w.TickCalls++
	if now < w.until {
		w.Ops++
		return
	}
	w.Idle++
}

func (w *worker) NextEvent(now sim.Cycle) sim.Cycle {
	if now < w.until {
		return now
	}
	return sim.Never
}

func (w *worker) SkipCycles(from, to sim.Cycle) { w.Idle += int64(to - from) }

// rig is one engine+worker+sampler assembly.
func rig(naive bool, busy, every sim.Cycle) (*sim.Engine, *worker, *Sampler) {
	eng := sim.New()
	if naive {
		eng.SetMode(sim.ModeNaive)
	}
	w := &worker{until: busy}
	eng.Register("worker", w)
	reg := NewRegistry()
	reg.Counter("cluster0/ce0/ops", &w.Ops)
	reg.Counter("cluster0/ce0/idle_cycles", &w.Idle)
	s := NewSampler(reg, every)
	s.Attach(eng)
	return eng, w, s
}

func TestNextSampleMath(t *testing.T) {
	s := NewSampler(NewRegistry(), 10)
	cases := []struct{ now, want sim.Cycle }{
		{-5, 0}, {0, 0}, {1, 10}, {9, 10}, {10, 10}, {11, 20}, {100, 100},
	}
	for _, c := range cases {
		if got := s.NextSample(c.now); got != c.want {
			t.Fatalf("NextSample(%d) = %d, want %d", c.now, got, c.want)
		}
	}
	off := NewSampler(NewRegistry(), 0)
	if got := off.NextSample(5); got != sim.Never {
		t.Fatalf("NextSample with periodic sampling off = %d, want Never", got)
	}
}

func TestPeriodicSamplesLandOnBoundaries(t *testing.T) {
	for _, naive := range []bool{false, true} {
		eng, _, s := rig(naive, 20, 10)
		eng.Run(95)
		s.Final()
		var cycles []sim.Cycle
		for _, smp := range s.Samples() {
			cycles = append(cycles, smp.Cycle)
		}
		want := []sim.Cycle{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95}
		if len(cycles) != len(want) {
			t.Fatalf("naive=%v: sampled at %v, want %v", naive, cycles, want)
		}
		for i := range want {
			if cycles[i] != want[i] {
				t.Fatalf("naive=%v: sample %d at cycle %d, want %d", naive, i, cycles[i], want[i])
			}
		}
		// A sample observes the state as the cycle begins: at cycle 10 the
		// worker has executed cycles 0..9, so ops = 10.
		if got := s.Samples()[1].Values[0]; got != 10 {
			t.Fatalf("naive=%v: ops at cycle-10 sample = %d, want 10", naive, got)
		}
	}
}

// TestSamplingDoesNotWake is the §4.1 contract: landing on a sample
// boundary inside a fast-forwarded quiet span must not tick the idle
// component.
func TestSamplingDoesNotWake(t *testing.T) {
	eng, w, s := rig(false, 20, 10)
	eng.Run(100)
	s.Final()
	if w.TickCalls != 20 {
		t.Fatalf("idle worker ticked %d times under sampling, want 20 (busy cycles only)", w.TickCalls)
	}
	// The samples in the quiet span still exist and carry settled counters.
	last := s.Samples()[len(s.Samples())-1]
	if last.Cycle != 100 || last.Values[0] != 20 || last.Values[1] != 80 {
		t.Fatalf("final sample = @%d ops=%d idle=%d, want @100 ops=20 idle=80",
			last.Cycle, last.Values[0], last.Values[1])
	}
}

func TestSamplerFingerprintEngineEquivalence(t *testing.T) {
	engF, _, sF := rig(false, 37, 10)
	engN, _, sN := rig(true, 37, 10)
	engF.Run(120)
	engN.Run(120)
	sF.Final()
	sN.Final()
	if sF.Fingerprint() != sN.Fingerprint() {
		t.Fatalf("sampler series diverged between engine paths:\nfast:\n%s\nnaive:\n%s",
			sF.Fingerprint(), sN.Fingerprint())
	}
	if sF.Registry().Fingerprint() != sN.Registry().Fingerprint() {
		t.Fatal("final registry fingerprints diverged between engine paths")
	}
}

func TestPhaseMarks(t *testing.T) {
	eng, _, s := rig(false, 20, 0) // periodic sampling off
	// Idle engine: a phase mark takes a full settled snapshot.
	s.Phase("setup:end")
	eng.Run(10)
	// Mid-cycle: a component callback marks a phase; the sampler must
	// record label and cycle only (nil Values), because mid-tick counter
	// state differs between engine paths.
	eng.Register("marker", sim.ComponentFunc(func(now sim.Cycle) {
		if now == 15 {
			s.Phase("barrier:start")
		}
	}))
	eng.Run(10)
	s.Final()

	smps := s.Samples()
	if len(smps) != 3 {
		t.Fatalf("got %d samples, want 3 (two marks + Final): %+v", len(smps), smps)
	}
	if smps[0].Label != "setup:end" || smps[0].Values == nil {
		t.Fatalf("idle-engine mark = %+v, want full snapshot", smps[0])
	}
	if smps[1].Label != "barrier:start" || smps[1].Cycle != 15 || smps[1].Values != nil {
		t.Fatalf("mid-cycle mark = %+v, want label-only at cycle 15", smps[1])
	}
	if smps[2].Cycle != 20 || smps[2].Values == nil {
		t.Fatalf("Final = %+v, want full snapshot at cycle 20", smps[2])
	}
}

func TestPhaseObserverLabels(t *testing.T) {
	_, _, s := rig(false, 5, 0)
	s.PhaseStart("xdoall")
	s.PhaseEnd("xdoall")
	smps := s.Samples()
	if smps[0].Label != "xdoall:start" || smps[1].Label != "xdoall:end" {
		t.Fatalf("observer labels = %q, %q", smps[0].Label, smps[1].Label)
	}
}

func TestIntervalsSkipMarksAndZeroLength(t *testing.T) {
	eng, _, s := rig(false, 40, 10)
	eng.Register("marker", sim.ComponentFunc(func(now sim.Cycle) {
		if now == 15 {
			s.Phase("mid")
		}
	}))
	eng.Run(30)
	s.Final()      // closes the series with a full snapshot at cycle 30
	s.Phase("end") // second snapshot at the same cycle: zero-length interval
	ivs := s.Intervals()
	want := []struct{ from, to sim.Cycle }{{0, 10}, {10, 20}, {20, 30}}
	if len(ivs) != len(want) {
		t.Fatalf("got %d intervals, want %d", len(ivs), len(want))
	}
	for i, w := range want {
		iv := ivs[i]
		if iv.From != w.from || iv.To != w.to {
			t.Fatalf("interval %d = [%d,%d), want [%d,%d)", i, iv.From, iv.To, w.from, w.to)
		}
		if iv.Cycles() != 10 {
			t.Fatalf("interval %d Cycles = %d", i, iv.Cycles())
		}
		if iv.Delta[0] != 10 { // worker busy the whole measured span
			t.Fatalf("interval %d ops delta = %d, want 10", i, iv.Delta[0])
		}
	}
}

func TestSampleDepthLimit(t *testing.T) {
	eng, _, s := rig(false, 100, 1)
	s.SetMaxSamples(5)
	eng.Run(50)
	if len(s.Samples()) != 5 {
		t.Fatalf("depth-limited sampler kept %d samples, want 5", len(s.Samples()))
	}
	if s.Dropped != 45 {
		t.Fatalf("Dropped = %d, want 45", s.Dropped)
	}
}

// TestIntervalPhaseStamping: each interval carries the innermost phase
// active at its From edge. A mark landing mid-interval changes only the
// intervals that follow, and nested phases attribute to the inner name
// until it ends.
func TestIntervalPhaseStamping(t *testing.T) {
	eng, _, s := rig(false, 100, 10)
	eng.Register("marker", sim.ComponentFunc(func(now sim.Cycle) {
		switch now {
		case 15:
			s.PhaseStart("outer")
		case 35:
			s.PhaseStart("inner")
		case 55:
			s.PhaseEnd("inner")
		case 75:
			s.PhaseEnd("outer")
		}
	}))
	eng.Run(100)
	s.Final()
	ivs := s.Intervals()
	want := []string{"", "", "outer", "outer", "inner", "inner", "outer", "outer", "", ""}
	if len(ivs) != len(want) {
		t.Fatalf("got %d intervals, want %d", len(ivs), len(want))
	}
	for i, w := range want {
		if ivs[i].Phase != w {
			t.Fatalf("interval %d [%d,%d) phase = %q, want %q",
				i, ivs[i].From, ivs[i].To, ivs[i].Phase, w)
		}
	}
}
