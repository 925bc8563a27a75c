// Package perfmon models Cedar's external performance-monitoring
// hardware as the reproduction uses it: histogrammers with 64K 32-bit
// counters, attachable to hardware signals anywhere in the machine (the
// memory-characterization probes put one on the reply path). The
// hardware's event tracers (1M time-stamped events each, which running
// programs could also post to) are not modelled: no exhibit reads a
// trace.
//
// The package also provides the probe used for Table 2 of the paper: for
// every prefetch request it records when the address is issued to the
// forward network and when each datum returns to the prefetch buffer,
// yielding first-word Latency and Interarrival time between the remaining
// words of the block, in instruction cycles.
package perfmon

import (
	"fmt"
	"math"

	"repro/internal/prefetch"
	"repro/internal/sim"
)

// HistogramCounters is the hardware histogrammer counter count.
const HistogramCounters = 64 << 10

// Histogram is a bank of counters over a fixed value range; values
// outside the range land in the first or last bin. Like the hardware's
// 32-bit counters, a bin saturates at its maximum instead of wrapping;
// saturated increments are tallied in Overflow.
type Histogram struct {
	min, max int64
	bins     []uint32
	n        int64
	sum      float64

	// Overflow counts samples whose bin had already saturated at the
	// 32-bit counter maximum.
	Overflow int64
}

// NewHistogram returns a histogram of [min, max] with the given bin count
// (<= 0 selects the hardware's 64K counters).
func NewHistogram(min, max int64, bins int) *Histogram {
	if bins <= 0 {
		bins = HistogramCounters
	}
	if max <= min {
		panic(fmt.Sprintf("perfmon: histogram range [%d,%d]", min, max))
	}
	return &Histogram{min: min, max: max, bins: make([]uint32, bins)}
}

// Add records one sample.
func (h *Histogram) Add(v int64) {
	i := int64(len(h.bins)) * (v - h.min) / (h.max - h.min + 1)
	if i < 0 {
		i = 0
	}
	if i >= int64(len(h.bins)) {
		i = int64(len(h.bins)) - 1
	}
	if h.bins[i] == math.MaxUint32 {
		h.Overflow++
	} else {
		h.bins[i]++
	}
	h.n++
	h.sum += float64(v)
}

// Count reports the number of samples.
func (h *Histogram) Count() int64 { return h.n }

// Mean reports the sample mean (NaN when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.n)
}

// Bin returns counter i.
func (h *Histogram) Bin(i int) uint32 { return h.bins[i] }

// Quantile returns an approximate q-quantile (bin lower edge), q in [0,1].
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return h.min
	}
	target := int64(q * float64(h.n))
	var seen int64
	for i, c := range h.bins {
		seen += int64(c)
		if seen > target {
			return h.min + int64(i)*(h.max-h.min+1)/int64(len(h.bins))
		}
	}
	return h.max
}

// blockStat is the probe's per-block measurement state: one record per
// Fire, so back-to-back prefetches whose replies overlap in the network
// never contaminate each other's statistics.
type blockStat struct {
	firstIssue sim.Cycle
	issues     int
	arrivals   int
	lastArrive sim.Cycle
}

// PrefetchProbe measures a PFU the way the paper's monitor does: issue
// and arrival times per request, first-word latency per prefetch block,
// and interarrival gaps between the remaining words. Measurements are
// keyed per block; an arrival is attributed through its request tag (the
// buffer slot it fills), which stays correct even when replies from
// different memory modules interleave out of block order across
// pipelined prefetches. The probe keeps running sums, not samples.
type PrefetchProbe struct {
	blocks []blockStat
	// pending holds, per buffer slot, one plus the index of the block
	// whose request on that slot awaits its reply (0: none). A correctly
	// wired machine never has two requests for one slot in flight: Fire
	// invalidates the buffer, and a reissue is not a new issue.
	pending []int

	latSum, gapSum sim.Cycle // first-word latencies and interarrival gaps
	latN, gapN     int

	// Spurious counts arrivals on a slot with no request outstanding (a
	// reply that reached a PFU whose prefetch was retired — never
	// attributed).
	Spurious int64
}

// AttachPrefetch instruments u, installing its OnFire, OnIssue and
// OnArrive hooks.
func AttachPrefetch(u *prefetch.PFU) *PrefetchProbe {
	p := &PrefetchProbe{}
	u.OnFire = func(uint64) { p.blocks = append(p.blocks, blockStat{}) }
	u.OnIssue = func(now sim.Cycle, seq int, _ uint64) {
		if len(p.blocks) == 0 {
			// Attached after the block fired: open it at first issue.
			p.blocks = append(p.blocks, blockStat{})
		}
		b := &p.blocks[len(p.blocks)-1]
		if b.issues == 0 {
			b.firstIssue = now
		}
		b.issues++
		// The request travels tagged with its buffer slot; remember which
		// block issued on that slot so the reply attributes to it.
		slot := seq % prefetch.BufferWords
		if slot >= len(p.pending) {
			p.pending = append(p.pending, make([]int, slot+1-len(p.pending))...)
		}
		p.pending[slot] = len(p.blocks)
	}
	u.OnArrive = func(now sim.Cycle, slot int) {
		if slot >= len(p.pending) || p.pending[slot] == 0 {
			p.Spurious++
			return
		}
		b := &p.blocks[p.pending[slot]-1]
		p.pending[slot] = 0
		if b.arrivals == 0 {
			// First datum of the block: latency from the block's first
			// issue.
			p.latSum += now - b.firstIssue
			p.latN++
		} else {
			p.gapSum += now - b.lastArrive
			p.gapN++
		}
		b.lastArrive = now
		b.arrivals++
	}
	return p
}

// MeanLatency is the mean first-word latency over all blocks, in cycles.
func (p *PrefetchProbe) MeanLatency() float64 { return mean(p.latSum, p.latN) }

// MeanInterarrival is the mean gap between the remaining words of each
// block, in cycles.
func (p *PrefetchProbe) MeanInterarrival() float64 { return mean(p.gapSum, p.gapN) }

// Blocks reports the number of completed first-word measurements.
func (p *PrefetchProbe) Blocks() int { return p.latN }

// Samples reports the number of interarrival gaps measured.
func (p *PrefetchProbe) Samples() int { return p.gapN }

func mean(sum sim.Cycle, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	return float64(sum) / float64(n)
}
