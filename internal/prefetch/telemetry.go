package prefetch

import "repro/internal/telemetry"

// Outstanding reports the requests issued but not yet arrived for the
// current prefetch — the in-flight depth the unit exists to sustain.
func (u *PFU) Outstanding() int { return u.issued - u.arrived }

// RegisterMetrics publishes the PFU's counters under prefix (for example
// "cluster0/pfu3").
func (u *PFU) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	s := reg.Scope(prefix)
	s.Counter("prefetches", &u.Prefetches)
	s.Counter("issued", &u.Issued)
	s.Counter("page_crossings", &u.PageCrossings)
	s.Counter("stall_cycles", &u.StallCycles)
	s.Counter("retries", &u.Retries)
	s.Counter("retries_exhausted", &u.RetriesExhausted)
	s.Counter("duplicate_replies", &u.DuplicateReplies)
	s.Counter("stale_replies", &u.StaleReplies)
	s.Counter("spin_waits", &u.SpinWaits)
	s.Gauge("outstanding", func() int64 { return int64(u.Outstanding()) })
}
