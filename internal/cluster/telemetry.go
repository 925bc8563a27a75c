package cluster

import "repro/internal/telemetry"

// RegisterMetrics publishes the IP's counters under prefix (for example
// "cluster0/ip").
func (ip *IP) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	s := reg.Scope(prefix)
	s.Counter("requests", &ip.Requests)
	s.Counter("busy_cycles", &ip.BusyCycles)
	s.Counter("words_moved", &ip.WordsMoved)
	s.Counter("completions", &ip.Completions)
	s.Counter("wait_cycles", &ip.WaitCycles)
	s.Counter("fault_busies", &ip.FaultBusies)
	s.Counter("fault_delays", &ip.FaultDelays)
	s.Gauge("pending", func() int64 { return int64(ip.Pending()) })
}

// RegisterMetrics publishes the cluster's concurrency-bus fault counters
// under prefix (for example "cluster0/bus").
func (cl *Cluster) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	s := reg.Scope(prefix)
	s.Counter("fault_stalls", &cl.BusFaults)
	s.Counter("stalled_ops", &cl.BusStalledOps)
	s.Counter("stall_cycles", &cl.BusStallCycles)
}
