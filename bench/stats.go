package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it (p99 needs 1000 samples).
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples and whether
// the rule allows reporting it. samples is not modified.
func percentile(samples []float64, q float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// tailQuantile is the highest quantile, capped at 0.99, the rule
// supports for n samples.
func tailQuantile(n int) float64 {
	return math.Min(0.99, 1-float64(minBeyond)/float64(n))
}

// median is the conventional median (mean of the middle pair for an
// even count); it summarizes the few repeats of one spec.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// specTimes holds the repeated host timings of one distinct spec, in
// nanoseconds. The registry timings are taken on traced passes only.
type specTimes struct {
	wall, prepare, execute   []float64
	regBuild, regFingerprint []float64
	cycles                   int64
}

// listStats combines per-spec medians with the job list's weights: the
// list names each spec n_spec times, and every entry is charged its
// spec's median.
type listStats struct {
	jobs        int     // N, the list length
	wallNs      float64 // Σ n_spec·median_wall
	executeNs   float64 // Σ n_spec·median_execute
	prepareNs   float64 // Σ n_spec·median_prepare
	cycles      float64 // Σ n_spec·cycles
	perJobWalls []float64
}

// aggregate weights per-spec medians by the list. A spec that never
// completed (every attempt failed) contributes nothing; such a run is
// already marked incorrect.
func aggregate(list []int, times []*specTimes) listStats {
	st := listStats{jobs: len(list)}
	for _, i := range list {
		t := times[i]
		if t == nil {
			continue
		}
		wall := median(t.wall)
		st.wallNs += wall
		st.executeNs += median(t.execute)
		st.prepareNs += median(t.prepare)
		st.cycles += float64(t.cycles)
		st.perJobWalls = append(st.perJobWalls, wall)
	}
	return st
}

// jobsPerSecond is N / Σ n_spec·median_wall(spec).
func (s listStats) jobsPerSecond() float64 { return float64(s.jobs) / (s.wallNs / 1e9) }

// hostNsPerSimCycle is Σ n_spec·median_execute / Σ n_spec·cycles;
// machine construction (Prepare) is excluded.
func (s listStats) hostNsPerSimCycle() float64 { return s.executeNs / s.cycles }
