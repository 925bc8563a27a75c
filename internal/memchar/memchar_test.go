package memchar

import (
	"math"
	"testing"
)

func TestValidation(t *testing.T) {
	if _, err := Run(Config{Sources: 0, RatePerSource: 1}); err == nil {
		t.Fatal("0 sources accepted")
	}
	if _, err := Run(Config{Sources: 8, RatePerSource: 0}); err == nil {
		t.Fatal("rate 0 accepted")
	}
	if _, err := Run(Config{Sources: 8, RatePerSource: 1.5}); err == nil {
		t.Fatal("rate > 1 accepted")
	}
	// A write-only probe delivers nothing and measures no latency, so
	// it would read as a dead network.
	for _, w := range []float64{-0.1, 1, 2, math.NaN()} {
		if _, err := Run(Config{Sources: 8, RatePerSource: 1, WriteFraction: w}); err == nil {
			t.Fatalf("write fraction %g accepted", w)
		}
	}
}

// TestUnloadedLatencyIsEight: at light load the round trip is the
// paper's 8-cycle minimum.
func TestUnloadedLatencyIsEight(t *testing.T) {
	r, err := Run(Config{Sources: 4, RatePerSource: 0.05, Stride: 1, Cycles: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanLatency < 8 || r.MeanLatency > 8.5 {
		t.Fatalf("light-load latency = %.2f, want ~8", r.MeanLatency)
	}
	if r.DeliveredWordsPerCycle < 0.95*r.OfferedWordsPerCycle {
		t.Fatalf("light load not fully delivered: %.2f of %.2f", r.DeliveredWordsPerCycle, r.OfferedWordsPerCycle)
	}
}

// TestSaturation: full-rate offered load from 32 sources saturates near
// the 16 words/cycle aggregate (768 MB/s) with elevated latency.
func TestSaturation(t *testing.T) {
	r, err := Run(Config{Sources: 32, RatePerSource: 1, Stride: 1, Cycles: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if r.DeliveredWordsPerCycle < 10 || r.DeliveredWordsPerCycle > 16.5 {
		t.Fatalf("saturated throughput = %.2f w/cyc, want near the 16 w/cyc capacity", r.DeliveredWordsPerCycle)
	}
	if r.MeanLatency < 12 {
		t.Fatalf("saturated latency = %.1f, expected well above the 8-cycle minimum", r.MeanLatency)
	}
	if r.Rejected == 0 {
		t.Fatal("no backpressure at 2x overload")
	}
}

// TestStrideAliasing: a stride equal to the module count aliases every
// request to one module, collapsing throughput to that module's service
// rate — the classic interleaved-memory pathology.
func TestStrideAliasing(t *testing.T) {
	unit, err := Run(Config{Sources: 8, RatePerSource: 1, Stride: 1, Cycles: 8000})
	if err != nil {
		t.Fatal(err)
	}
	aliased, err := Run(Config{Sources: 8, RatePerSource: 1, Stride: 32, Cycles: 8000})
	if err != nil {
		t.Fatal(err)
	}
	// Each source's stream aliases to a single module, capping it at the
	// module service rate of 0.5 words/cycle: 8 sources -> ~4 w/cyc.
	if aliased.DeliveredWordsPerCycle > 4.3 {
		t.Fatalf("stride-32 throughput = %.2f w/cyc, want ~4 (one module of 0.5 w/cyc per source)",
			aliased.DeliveredWordsPerCycle)
	}
	if unit.DeliveredWordsPerCycle < 1.6*aliased.DeliveredWordsPerCycle {
		t.Fatalf("unit stride (%.2f) not well above aliased stride (%.2f)",
			unit.DeliveredWordsPerCycle, aliased.DeliveredWordsPerCycle)
	}
	// Odd strides are conflict-free.
	odd, err := Run(Config{Sources: 8, RatePerSource: 1, Stride: 33, Cycles: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if odd.DeliveredWordsPerCycle < 0.8*unit.DeliveredWordsPerCycle {
		t.Fatalf("odd stride (%.2f) should match unit stride (%.2f)",
			odd.DeliveredWordsPerCycle, unit.DeliveredWordsPerCycle)
	}
}

// TestWriteMixConsumesBandwidth: two-word writes halve the request rate a
// port can sustain.
func TestWriteMixConsumesBandwidth(t *testing.T) {
	reads, err := Run(Config{Sources: 32, RatePerSource: 1, Cycles: 6000})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := Run(Config{Sources: 32, RatePerSource: 1, WriteFraction: 0.5, Cycles: 6000})
	if err != nil {
		t.Fatal(err)
	}
	// Delivered counts read replies only; with half the requests being
	// writes, read throughput must drop.
	if mixed.DeliveredWordsPerCycle >= reads.DeliveredWordsPerCycle {
		t.Fatalf("write mix did not reduce read throughput: %.2f vs %.2f",
			mixed.DeliveredWordsPerCycle, reads.DeliveredWordsPerCycle)
	}
}

// TestIdealFabricComparison: the contentionless fabric delivers at least
// as much as the omega network under identical load, but remains bounded
// by the modules.
func TestIdealFabricComparison(t *testing.T) {
	real, err := Run(Config{Sources: 32, RatePerSource: 1, Cycles: 8000})
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := Run(Config{Sources: 32, RatePerSource: 1, Cycles: 8000, Ideal: true})
	if err != nil {
		t.Fatal(err)
	}
	if ideal.DeliveredWordsPerCycle < real.DeliveredWordsPerCycle-0.5 {
		t.Fatalf("ideal fabric slower than omega: %.2f vs %.2f",
			ideal.DeliveredWordsPerCycle, real.DeliveredWordsPerCycle)
	}
	if ideal.DeliveredWordsPerCycle > 16.5 {
		t.Fatalf("ideal fabric exceeded module capacity: %.2f w/cyc", ideal.DeliveredWordsPerCycle)
	}
}

// TestLatencyHistogramWired: the reply path is measured through the
// perfmon histogrammer, so the distribution (and its saturation tally)
// backs the reported mean exactly.
func TestLatencyHistogramWired(t *testing.T) {
	r, err := Run(Config{Sources: 8, RatePerSource: 0.5, Stride: 1, Cycles: 5000})
	if err != nil {
		t.Fatal(err)
	}
	h := r.LatencyHist
	if h == nil || h.Count() == 0 {
		t.Fatal("latency histogram missing or empty")
	}
	if got := h.Mean(); got != r.MeanLatency {
		t.Fatalf("histogram mean %.4f != reported mean %.4f", got, r.MeanLatency)
	}
	if h.Overflow != 0 {
		t.Fatalf("finite run saturated %d histogram bins", h.Overflow)
	}
	if q := h.Quantile(0.5); q < 8 {
		t.Fatalf("median latency %d below the 8-cycle minimum", q)
	}
}
