package ce

import (
	"repro/internal/isa"
	"repro/internal/telemetry"
)

// RegisterMetrics publishes the CE's counters under prefix (for example
// "cluster0/ce3"). The exported fields stay the backing store — the
// registry reads them through closures at snapshot time, so the
// execution path is untouched.
func (c *CE) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	s := reg.Scope(prefix)
	s.Counter("flops", &c.Flops)
	s.Counter("ops_done", &c.OpsDone)
	s.Counter("stall_mem", &c.StallMem)
	s.Counter("stall_net", &c.StallNet)
	s.Counter("idle_cycles", &c.IdleCycles)
	s.Counter("retries", &c.Retries)
	s.Counter("late_replies", &c.LateReplies)
	s.Counter("stale_replies", &c.StaleReplies)
	s.Counter("retries_exhausted", &c.RetriesExhausted)
	s.Counter("check_stops", &c.CheckStops)
	s.Counter("surrendered", &c.Surrendered)
	s.Counter("io_requests", &c.IORequests)
	s.Counter("io_wait_cycles", &c.IOWaitCycles)
	s.Counter("io_words", &c.IOWords)
	s.Gauge("finished_at", func() int64 { return int64(c.FinishedAt) })
	// Cycle-accounting buckets (DESIGN.md §4.8). Registered as Counters
	// so they join every fingerprint: the determinism, fuzz, and scale
	// suites then enforce bit-identical attribution across engine modes
	// for free. The "attr/" name prefix is what the trace exporter keys
	// its per-CE counter tracks on.
	for b, name := range attrNames {
		s.Counter(name, &c.Acct.Cycles[b])
	}
}

// attrNames are the cycle-accounting buckets' metric names.
var attrNames = func() (names [isa.NumBuckets]string) {
	for b := range names {
		names[b] = "attr/" + isa.Bucket(b).String()
	}
	return names
}()
