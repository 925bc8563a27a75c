package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/job"
	"repro/internal/job/runner"
	"repro/internal/memchar"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Indices into layerCounts: each layer's exact work counts, read from a
// finished machine's registry.
const (
	cCycles = iota
	cFastForwarded
	cSkippedTicks
	cDormantSkips
	cNetInjected
	cNetRejected
	cNetWords
	cGmemServed
	cGmemBusy
	cGmemModuleCycles
	cGmemSync
	cCacheHits
	cCacheMisses
	cCacheBankStalls
	cPFIssued
	cPFStallCycles
	cPFRetries
	cCEOps
	cCEFlops
	cCEBusy
	cCEWait
	cCECycles
	cIPRequests
	cIPBusy
	cIOParks
	nCounts
)

type layerCounts [nCounts]int64

// readCounts sums the registry's per-component counters into layers.
// cycles is the run's simulated length.
func readCounts(reg *telemetry.Registry, cycles int64) layerCounts {
	var c layerCounts
	c[cCycles] = cycles
	vals := reg.Snapshot()
	for i, path := range reg.Paths() {
		v := vals[i]
		parts := strings.Split(path, "/")
		last := parts[len(parts)-1]
		switch {
		case path == "engine/fast_forwarded":
			c[cFastForwarded] += v
		case path == "engine/skipped_ticks":
			c[cSkippedTicks] += v
		case path == "engine/dormant_skips":
			c[cDormantSkips] += v
		case path == "xylem/io/parks":
			c[cIOParks] += v
		case parts[0] == "net":
			switch last {
			case "injected":
				c[cNetInjected] += v
			case "rejected":
				c[cNetRejected] += v
			case "words_in":
				c[cNetWords] += v
			}
		case parts[0] == "gmem":
			switch last {
			case "served":
				c[cGmemServed] += v
				c[cGmemModuleCycles] += cycles
			case "busy_cycles":
				c[cGmemBusy] += v
			case "sync_ops":
				c[cGmemSync] += v
			}
		case strings.HasPrefix(parts[0], "cluster") && len(parts) >= 3:
			unit := parts[1]
			switch {
			case unit == "cache":
				switch last {
				case "hits":
					c[cCacheHits] += v
				case "misses":
					c[cCacheMisses] += v
				case "bank_stalls":
					c[cCacheBankStalls] += v
				}
			case unit == "ip":
				switch last {
				case "requests":
					c[cIPRequests] += v
				case "busy_cycles":
					c[cIPBusy] += v
				}
			case strings.HasPrefix(unit, "pfu"):
				switch last {
				case "issued":
					c[cPFIssued] += v
				case "stall_cycles":
					c[cPFStallCycles] += v
				case "retries":
					c[cPFRetries] += v
				}
			case strings.HasPrefix(unit, "ce") && len(parts) == 4 && parts[2] == "attr":
				c[cCECycles] += v
				switch last {
				case "busy":
					c[cCEBusy] += v
				case "scalar_wait", "vector_wait", "prefetch_wait", "sync_wait":
					c[cCEWait] += v
				}
			case strings.HasPrefix(unit, "ce"):
				switch last {
				case "ops_done":
					c[cCEOps] += v
				case "flops":
					c[cCEFlops] += v
				}
			}
		}
	}
	return c
}

// ratio is a/b, or 0 when the layer did none of the work b counts.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// countMetrics turns summed counts into the per-layer count and ratio
// metrics.
func countMetrics(c layerCounts) map[string]float64 {
	executed := c[cCycles] - c[cFastForwarded]
	return map[string]float64{
		"sim.cycles":             float64(c[cCycles]),
		"sim.executed_cycles":    float64(executed),
		"sim.fast_forward_frac":  ratio(c[cFastForwarded], c[cCycles]),
		"sim.skipped_ticks":      float64(c[cSkippedTicks]),
		"sim.dormant_skips":      float64(c[cDormantSkips]),
		"network.packets":        float64(c[cNetInjected]),
		"network.words":          float64(c[cNetWords]),
		"network.accept_ratio":   ratio(c[cNetInjected], c[cNetInjected]+c[cNetRejected]),
		"gmem.served":            float64(c[cGmemServed]),
		"gmem.busy_frac":         ratio(c[cGmemBusy], c[cGmemModuleCycles]),
		"gmem.sync_ops":          float64(c[cGmemSync]),
		"cache.accesses":         float64(c[cCacheHits] + c[cCacheMisses]),
		"cache.hit_ratio":        ratio(c[cCacheHits], c[cCacheHits]+c[cCacheMisses]),
		"cache.bank_stalls":      float64(c[cCacheBankStalls]),
		"prefetch.issued":        float64(c[cPFIssued]),
		"prefetch.stall_cycles":  float64(c[cPFStallCycles]),
		"prefetch.retries":       float64(c[cPFRetries]),
		"ce.ops_done":            float64(c[cCEOps]),
		"ce.flops":               float64(c[cCEFlops]),
		"ce.busy_frac":           ratio(c[cCEBusy], c[cCECycles]),
		"ce.wait_frac":           ratio(c[cCEWait], c[cCECycles]),
		"cluster.ip_requests":    float64(c[cIPRequests]),
		"cluster.ip_busy_cycles": float64(c[cIPBusy]),
		"xylem.io_parks":         float64(c[cIOParks]),
	}
}

// medianPerOp calls fn, which performs some operations and reports how
// many, until budget is spent (at least three calls), and returns the
// median nanoseconds per operation at reference speed over the calls.
func medianPerOp(budget time.Duration, speed *hostSpeed, fn func() (int64, error)) (float64, error) {
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		ops, err := fn()
		if err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(ops)/speed.now())
	}
	return median(per), nil
}

// ringNode is a synthetic engine component: it ticks only while it
// holds the token, then passes it on and wakes the next node, so every
// tick costs one calendar wake.
type ringNode struct {
	h     sim.Handle
	next  *ringNode
	token bool
	wakes *int64
}

func (n *ringNode) Tick(sim.Cycle) {
	if n.token {
		n.token = false
		n.next.token = true
		*n.wakes++
		n.next.h.Wake()
	}
}

func (n *ringNode) NextEvent(now sim.Cycle) sim.Cycle {
	if n.token {
		return now
	}
	return sim.Never
}

// layerProbes times each layer's public entry points in isolation, on
// inputs that do not depend on the workload: one budget per probe.
func layerProbes(budget time.Duration, speed *hostSpeed) (map[string]float64, error) {
	out := map[string]float64{}
	var err error

	// sim: Register/Wake/Run on a 64-node token ring.
	out["sim.wake_ns"], err = medianPerOp(budget, speed, func() (int64, error) {
		eng := sim.New()
		var wakes int64
		nodes := make([]*ringNode, 64)
		for i := range nodes {
			nodes[i] = &ringNode{wakes: &wakes}
		}
		for i, n := range nodes {
			n.next = nodes[(i+1)%len(nodes)]
			n.h = eng.Register("ring", n)
		}
		nodes[0].token = true
		eng.Run(2000)
		return wakes, nil
	})
	if err != nil {
		return nil, err
	}

	// network and gmem through memchar's stand-alone network+memory path:
	// host ns per delivered read round trip.
	for _, p := range []struct {
		name   string
		rate   float64
		stride int
	}{
		{"network.ns_per_packet_light", 0.1, 1},
		{"network.ns_per_packet_saturated", 1.0, 1},
		{"gmem.ns_per_access_aliased", 1.0, 32},
	} {
		out[p.name], err = medianPerOp(budget, speed, func() (int64, error) {
			const cycles = 20000
			r, err := memchar.Run(memchar.Config{Sources: 64, RatePerSource: p.rate, Stride: p.stride, Cycles: cycles})
			if err != nil {
				return 0, err
			}
			return int64(r.DeliveredWordsPerCycle*cycles + 0.5), nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}

	// cache: an isolated Access loop, eight CEs sharing one cycle, over a
	// footprint half again the cache's size so hits and misses mix.
	c := cache.New(cache.Config{})
	footprint := uint64(cache.Default().Words * 3 / 2)
	var next int64
	out["cache.ns_per_access"], err = medianPerOp(budget, speed, func() (int64, error) {
		const n = 1 << 16
		for i := next; i < next+n; i++ {
			c.Access(sim.Cycle(i/8), int(i%8), uint64(i*5)%footprint, i%4 == 0)
		}
		next += n
		return n, nil
	})
	if err != nil {
		return nil, err
	}

	// job: canonical fingerprint, strict decode, and a Service hit.
	specs := cedardPopulation()
	out["job.fingerprint_us"], err = medianPerOp(budget, speed, func() (int64, error) {
		for _, s := range specs {
			if _, err := s.Fingerprint(); err != nil {
				return 0, err
			}
		}
		return int64(len(specs)), nil
	})
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(specs[:4])
	if err != nil {
		return nil, err
	}
	out["job.decode_us"], err = medianPerOp(budget, speed, func() (int64, error) {
		const n = 100
		for i := 0; i < n; i++ {
			if _, err := job.Decode(bytes.NewReader(body)); err != nil {
				return 0, err
			}
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	svc := job.NewService(runner.Run, 16, 2)
	if _, _, err := svc.Do(specs[0]); err != nil {
		return nil, err
	}
	out["job.service_hit_us"], err = medianPerOp(budget, speed, func() (int64, error) {
		const n = 1000
		for i := 0; i < n; i++ {
			if _, _, err := svc.Do(specs[0]); err != nil {
				return 0, err
			}
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	for _, k := range []string{"job.fingerprint_us", "job.decode_us", "job.service_hit_us"} {
		out[k] /= 1e3
	}
	return out, nil
}
