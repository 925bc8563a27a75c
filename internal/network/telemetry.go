package network

import (
	"fmt"

	"repro/internal/telemetry"
)

// StagePackets reports the packets buffered in stage s's switches (input
// plus output queues). Ideal networks have no switch fabric and report
// zero.
func (n *Network) StagePackets(s int) int {
	if n.ideal {
		return 0
	}
	total := 0
	for i := range n.sw[s] {
		x := &n.sw[s][i]
		for o := range x.out {
			total += x.in[o].n + x.out[o].n
		}
	}
	return total
}

// EntryPackets reports the packets waiting in the entry registers.
func (n *Network) EntryPackets() int {
	if n.ideal {
		return len(n.idealFlight)
	}
	total := 0
	for i := range n.entry {
		total += n.entry[i].n
	}
	return total
}

// RegisterMetrics publishes the network's counters under prefix (for
// example "net/fwd"), including an in-flight gauge and, on a real omega
// fabric, per-stage occupancy gauges.
func (n *Network) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+"/injected", &n.Injected)
	reg.Counter(prefix+"/delivered", &n.Delivered)
	reg.Counter(prefix+"/words_in", &n.WordsIn)
	reg.Counter(prefix+"/rejected", &n.Rejected)
	reg.Counter(prefix+"/dropped", &n.Dropped)
	reg.Counter(prefix+"/fault_stalls", &n.FaultStalls)
	reg.Gauge(prefix+"/in_flight", func() int64 { return int64(n.InFlight()) })
	reg.Gauge(prefix+"/entry_pkts", func() int64 { return int64(n.EntryPackets()) })
	if n.ideal {
		return
	}
	for s := 0; s < n.stages; s++ {
		stage := s
		reg.Gauge(fmt.Sprintf("%s/stage%d_pkts", prefix, stage),
			func() int64 { return int64(n.StagePackets(stage)) })
	}
}
