package network

import (
	"strconv"

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
	s := reg.Scope(prefix)
	s.Counter("injected", &n.Injected)
	s.Counter("delivered", &n.Delivered)
	s.Counter("words_in", &n.WordsIn)
	s.Counter("rejected", &n.Rejected)
	s.Counter("dropped", &n.Dropped)
	s.Counter("fault_stalls", &n.FaultStalls)
	s.Gauge("in_flight", func() int64 { return int64(n.InFlight()) })
	s.Gauge("entry_pkts", func() int64 { return int64(n.EntryPackets()) })
	if n.ideal {
		return
	}
	for stage := 0; stage < n.stages; stage++ {
		s.Gauge("stage"+strconv.Itoa(stage)+"_pkts",
			func() int64 { return int64(n.StagePackets(stage)) })
	}
}
