package gmem

import "repro/internal/telemetry"

// RegisterMetrics publishes the module's counters under prefix (for
// example "gmem/mod7").
func (m *Module) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	s := reg.Scope(prefix)
	s.Counter("served", &m.Served)
	s.Counter("sync_ops", &m.SyncOps)
	s.Counter("reads", &m.Reads)
	s.Counter("writes", &m.Writes)
	s.Counter("busy_cycles", &m.BusyCycles)
	s.Counter("busy_faults", &m.BusyFaults)
	s.Counter("degrade_faults", &m.DegradeFaults)
	s.Counter("degraded_serves", &m.DegradedServes)
	s.Gauge("queue_len", func() int64 { return int64(m.QueueLen()) })
}
