package main

import (
	"math"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so percentile must sort
	}
	return xs
}

// TestPercentileRule: a percentile is reportable only with at least ten
// samples beyond it, so p99 needs 1000 samples and the median 20.
func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1, 0.50, 1, false},
	} {
		v, ok := percentile(ramp(tc.n), tc.q)
		if v != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", tc.n, tc.q, v, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as ok")
	}
	for _, n := range []int{1000, 5000, 128} {
		if _, ok := percentile(ramp(n), tailQuantile(n)); !ok {
			t.Errorf("tailQuantile(%d) = %g is not reportable", n, tailQuantile(n))
		}
	}
	if q := tailQuantile(100000); q != 0.99 {
		t.Errorf("tailQuantile caps at 0.99, got %g", q)
	}
}

// TestAggregateWeightsPerSpecMedians: each list entry is charged its
// spec's median, so an outlier repeat does not move the totals and a
// spec listed twice counts twice.
func TestAggregateWeightsPerSpecMedians(t *testing.T) {
	times := []*specTimes{
		{wall: []float64{10, 12, 100}, prepare: []float64{2, 2, 90}, execute: []float64{8, 10, 10}, cycles: 4},
		{wall: []float64{5, 7}, prepare: []float64{1, 1}, execute: []float64{4, 6}, cycles: 1},
		nil, // a population spec this list never names
	}
	st := aggregate([]int{0, 1, 0}, times)
	if st.jobs != 3 || st.wallNs != 12+6+12 || st.prepareNs != 2+1+2 || st.executeNs != 10+5+10 || st.cycles != 9 {
		t.Fatalf("aggregate = %+v", st)
	}
	if got, want := st.jobsPerSecond(), 1e8; math.Abs(got-want) > 1e-6*want {
		t.Errorf("jobsPerSecond = %g, want %g", got, want)
	}
	if got, want := st.hostNsPerSimCycle(), 25.0/9; got != want {
		t.Errorf("hostNsPerSimCycle = %g, want %g", got, want)
	}
	if p50, _ := percentile(st.perJobWalls, 0.5); p50 != 12 {
		t.Errorf("list median wall = %g, want 12", p50)
	}
}

// TestOpenLoopTimedFromSchedule: a stalled request delays the ones
// behind it, and their latency counts the wait from when each was due,
// not from when a sender finally took it; the generator itself stays
// on schedule.
func TestOpenLoopTimedFromSchedule(t *testing.T) {
	offsets := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 200 * time.Millisecond}
	stall := 100 * time.Millisecond
	tim, late := openLoop(time.Now(), offsets, 1, func(_, i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	for i := 1; i <= 2; i++ {
		lat := tim[i].end.Sub(tim[i].due)
		if want := stall - offsets[i]; lat < want {
			t.Errorf("request %d: latency %v from its due time, want at least %v", i, lat, want)
		}
		if svc := tim[i].end.Sub(tim[i].start); svc > lat/2 {
			t.Errorf("request %d: service %v should be a small part of latency %v", i, svc, lat)
		}
	}
	if lat := tim[3].end.Sub(tim[3].due); lat > 50*time.Millisecond {
		t.Errorf("request 3 was due after the stall cleared, latency %v", lat)
	}
	for i, l := range late {
		if l > 50*time.Millisecond {
			t.Errorf("generator ran %v late on request %d while a sender stalled", l, i)
		}
	}
}
