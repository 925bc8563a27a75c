// Package memchar implements memory-system characterization benchmarks
// in the style of [GJTV91] ("Preliminary Performance Analysis of the
// Cedar Multiprocessor Memory System"), whose measured maximum bandwidth
// the paper cites when explaining the rank-64 results.
//
// The probes drive synthetic request streams through a stand-alone
// network+memory path (no CEs) and measure delivered bandwidth and
// round-trip latency as functions of offered load, source count, access
// stride and read/write mix. They expose the properties the machine's
// users had to program around: saturation near the 768 MB/s aggregate,
// the latency knee at saturation, and the collapse under strides that
// alias to a few memory modules.
package memchar

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gmem"
	"repro/internal/network"
	"repro/internal/perfmon"
	"repro/internal/sim"
)

// Config describes a probe run.
type Config struct {
	// Sources is the number of issuing processor ports.
	Sources int
	// RatePerSource is the offered load per source in requests/cycle
	// (0 < rate <= 1).
	RatePerSource float64
	// Stride is the word stride of each source's address stream
	// (1 = unit stride; multiples of the module count alias to a single
	// module).
	Stride int
	// WriteFraction is the share of requests that are (2-word) writes,
	// in [0, 1). Writes take no reply, so they add to the offered load
	// but not to the delivered throughput or the latency.
	WriteFraction float64
	// Cycles is the measurement duration.
	Cycles sim.Cycle
	// Ideal selects the contentionless network fabric.
	Ideal bool
}

// Result is one probe measurement.
type Result struct {
	Config
	// OfferedWordsPerCycle and DeliveredWordsPerCycle are the load and
	// the achieved read throughput (replies delivered).
	OfferedWordsPerCycle   float64
	DeliveredWordsPerCycle float64
	// MeanLatency is the mean read round trip in cycles.
	MeanLatency float64
	// LatencyHist is the histogrammer attached to the reply path: the
	// full round-trip distribution behind MeanLatency, including the
	// Overflow tally of samples whose saturated bins stopped counting.
	LatencyHist *perfmon.Histogram
	// Rejected counts injections refused by entry backpressure.
	Rejected int64
}

// ports is the probe fabric's port count, one per source: two stages of
// the as-built machine's crossbars.
const ports = core.NetRadix * core.NetRadix

// Run executes one probe on the as-built network and global memory.
func Run(cfg Config) (Result, error) {
	if cfg.Sources <= 0 || cfg.Sources > ports {
		return Result{}, fmt.Errorf("memchar: %d sources (1..%d)", cfg.Sources, ports)
	}
	if cfg.RatePerSource <= 0 || cfg.RatePerSource > 1 {
		return Result{}, fmt.Errorf("memchar: rate %g outside (0,1]", cfg.RatePerSource)
	}
	if !(cfg.WriteFraction >= 0 && cfg.WriteFraction < 1) {
		return Result{}, fmt.Errorf("memchar: write fraction %g outside [0,1)", cfg.WriteFraction)
	}
	if cfg.Stride == 0 {
		cfg.Stride = 1
	}
	if cfg.Cycles <= 0 {
		cfg.Cycles = 20000
	}

	eng := sim.New()
	var fwd, rev *network.Network
	var err error
	if cfg.Ideal {
		fwd, err = network.NewIdeal("forward", ports, core.NetRadix)
		if err == nil {
			rev, err = network.NewIdeal("reverse", ports, core.NetRadix)
		}
	} else {
		fwd, err = network.New("forward", ports, core.NetRadix, 0)
		if err == nil {
			rev, err = network.New("reverse", ports, core.NetRadix, 0)
		}
	}
	if err != nil {
		return Result{}, err
	}
	g, err := gmem.New(gmem.Default(), rev)
	if err != nil {
		return Result{}, err
	}
	for m := 0; m < g.Modules(); m++ {
		fwd.SetSink(m, g.Module(m))
	}
	for p := g.Modules(); p < ports; p++ {
		fwd.SetSink(p, network.SinkFunc(func(*network.Packet) bool { return true }))
	}

	// The reply path is measured the way the hardware monitor would: a
	// histogrammer on the round-trip latency signal. 0..4095 cycles at
	// one bin per cycle covers any latency a finite-queue run produces.
	latHist := perfmon.NewHistogram(0, 4095, 4096)
	var delivered, latSum int64
	for p := 0; p < ports; p++ {
		rev.SetSink(p, network.SinkFunc(func(pk *network.Packet) bool {
			delivered++
			lat := int64(eng.Now() - pk.Born)
			latSum += lat
			latHist.Add(lat)
			return true
		}))
	}

	addr := make([]uint64, cfg.Sources)
	acc := make([]float64, cfg.Sources)
	r := sim.NewRand(uint64(cfg.Sources)*1000 + uint64(cfg.Stride))
	for s := range addr {
		// Decorrelate stream starts across modules and phases.
		addr[s] = uint64(s*65536 + s)
		acc[s] = float64(s) / float64(cfg.Sources)
	}
	var offered int64
	eng.Register("sources", sim.ComponentFunc(func(now sim.Cycle) {
		for s := 0; s < cfg.Sources; s++ {
			acc[s] += cfg.RatePerSource
			if acc[s] < 1 {
				continue
			}
			kind := network.Read
			words := 1
			if cfg.WriteFraction > 0 && r.Float64() < cfg.WriteFraction {
				kind = network.Write
				words = 2
			}
			a := addr[s]
			p := &network.Packet{
				Dst: g.ModuleOf(a), Src: s, Words: words,
				Kind: kind, Addr: a, Phantom: true,
				Tag: 1 << 21,
			}
			if fwd.Offer(now, s, p) {
				acc[s]--
				addr[s] += uint64(cfg.Stride)
				if addr[s] >= uint64(g.Words()) {
					addr[s] %= uint64(g.Words())
				}
				offered++
			}
		}
	}))
	eng.Register("fwd", fwd)
	for m := 0; m < g.Modules(); m++ {
		eng.Register("mod", g.Module(m))
	}
	eng.Register("rev", rev)
	eng.Run(cfg.Cycles)

	res := Result{
		Config:                 cfg,
		OfferedWordsPerCycle:   float64(cfg.Sources) * cfg.RatePerSource,
		DeliveredWordsPerCycle: float64(delivered) / float64(cfg.Cycles),
		LatencyHist:            latHist,
		Rejected:               fwd.Rejected,
	}
	if delivered > 0 {
		res.MeanLatency = float64(latSum) / float64(delivered)
	}
	return res, nil
}
