package perfmon

import (
	"math"
	"testing"

	"repro/internal/gmem"
	"repro/internal/network"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 99, 100)
	for i := int64(0); i < 100; i++ {
		h.Add(i)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if m := h.Mean(); m != 49.5 {
		t.Fatalf("Mean = %g, want 49.5", m)
	}
	if h.Bin(42) != 1 {
		t.Fatalf("Bin(42) = %d, want 1", h.Bin(42))
	}
	if q := h.Quantile(0.5); q < 45 || q > 55 {
		t.Fatalf("median = %d, want ~50", q)
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(10, 19, 10)
	h.Add(-5)
	h.Add(100)
	if h.Bin(0) != 1 || h.Bin(9) != 1 {
		t.Fatal("out-of-range samples not clamped to edge bins")
	}
}

func TestHistogramEmptyMean(t *testing.T) {
	h := NewHistogram(0, 10, 4)
	if !math.IsNaN(h.Mean()) {
		t.Fatal("empty Mean not NaN")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty Quantile not min")
	}
}

func TestHistogramBadRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for inverted range")
		}
	}()
	NewHistogram(5, 5, 4)
}

// TestPrefetchProbeOnRealPath measures an actual prefetch through the
// memory path and checks the paper's minimums: 8-cycle first-word
// latency, ~1-cycle interarrival when uncontended.
func TestPrefetchProbeOnRealPath(t *testing.T) {
	eng := sim.New()
	fwd := network.MustNew("forward", 64, 8, 0)
	rev := network.MustNew("reverse", 64, 8, 0)
	g, err := gmem.New(gmem.Config{Words: 8192, Modules: 32}, rev)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < g.Modules(); m++ {
		fwd.SetSink(m, g.Module(m))
	}
	u := prefetch.New(fwd, 0)
	u.SetRouter(g.ModuleOf)
	rev.SetSink(0, network.SinkFunc(func(p *network.Packet) bool { return u.Deliver(eng.Now(), p) }))
	for p := 1; p < 64; p++ {
		rev.SetSink(p, network.SinkFunc(func(*network.Packet) bool { return true }))
	}
	probe := AttachPrefetch(u)
	eng.Register("pfu", u)
	eng.Register("fwd", fwd)
	for m := 0; m < g.Modules(); m++ {
		eng.Register("mod", g.Module(m))
	}
	eng.Register("rev", rev)

	u.Arm(64, 1)
	u.Fire(0)
	if _, err := eng.RunUntil(func() bool { return !u.Active() }, 5000); err != nil {
		t.Fatal(err)
	}
	if probe.Blocks() != 1 {
		t.Fatalf("Blocks = %d, want 1", probe.Blocks())
	}
	if lat := probe.MeanLatency(); lat != 8 {
		t.Fatalf("first-word latency = %g, want 8", lat)
	}
	if probe.Samples() != 63 {
		t.Fatalf("Samples = %d, want 63 (one gap per word after the first)", probe.Samples())
	}
	ia := probe.MeanInterarrival()
	if ia < 0.99 || ia > 1.3 {
		t.Fatalf("interarrival = %.2f, want ~1 uncontended", ia)
	}

	// Second block resets per-block state.
	u.Arm(32, 1)
	u.Fire(256)
	if _, err := eng.RunUntil(func() bool { return !u.Active() }, 5000); err != nil {
		t.Fatal(err)
	}
	if probe.Blocks() != 2 {
		t.Fatalf("Blocks after second fire = %d, want 2", probe.Blocks())
	}
}
