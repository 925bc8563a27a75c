package network

import "repro/internal/sim"

// Ideal mode. The paper reports (citing [Turn93]) that the contention
// degradation it measures "is not inherent in the type of network used
// but is a result of specific implementation constraints". To let that
// claim be tested, a Network can be built in ideal mode: packets still
// pay the same unloaded transit (one cycle per stage plus the entry
// register) and each output port still delivers at one word per cycle,
// but the switch fabric itself is contentionless — no finite queues, no
// head-of-line blocking, no arbitration. Comparing a workload on the
// ideal and real fabrics isolates how much of an observed slowdown the
// switch implementation contributes versus the memory modules and the
// port bandwidth themselves.

// NewIdeal builds a contentionless network with the same port count and
// unloaded latency as New would give.
func NewIdeal(name string, ports, radix int) (*Network, error) {
	n, err := New(name, ports, radix, 0)
	if err != nil {
		return nil, err
	}
	n.ideal = true
	return n, nil
}

// MustNewIdeal is NewIdeal, panicking on configuration errors.
func MustNewIdeal(name string, ports, radix int) *Network {
	n, err := NewIdeal(name, ports, radix)
	if err != nil {
		panic(err)
	}
	return n
}

// Ideal reports whether the network was built contentionless.
func (n *Network) Ideal() bool { return n.ideal }

// idealPkt is an in-flight packet in ideal mode.
type idealPkt struct {
	p        *Packet
	arriveAt sim.Cycle
}

// tickIdeal delivers everything whose transit has elapsed, in arrival
// order, at one word per cycle per output port.
func (n *Network) tickIdeal(now sim.Cycle) {
	// inject appends at now plus a constant transit and now never
	// decreases, and this filter keeps the survivors' order, so the
	// in-flight slice is always in arrival order, ties in insertion order.
	remaining := n.idealFlight[:0]
	for _, f := range n.idealFlight {
		if f.arriveAt > now || n.deliverFree[f.p.Dst] > now {
			remaining = append(remaining, f)
			continue
		}
		sink := n.sinks[f.p.Dst]
		if sink == nil || !sink.Offer(f.p) {
			remaining = append(remaining, f)
			continue
		}
		n.deliverFree[f.p.Dst] = now + sim.Cycle(f.p.Words)
		n.Delivered++
		if n.OnDeliver != nil {
			n.OnDeliver(now, f.p.Dst, f.p)
		}
	}
	n.idealFlight = remaining
}
