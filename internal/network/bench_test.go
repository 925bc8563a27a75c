package network

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkNetworkTick times one cycle of Cedar's 64-port radix-8 omega
// network (2-word queues), with sinks that always accept. sparse, light
// and saturated offer 1-word packets to uniform random ports at 0.01, 0.1
// and 1.0 packets per port per cycle; hotspot offers a 2-word packet from
// every port to port 0 every cycle, so most queue heads wait behind the
// hot port. One op is one Tick plus that cycle's offers. Packets are
// recycled through a free list, so a steady-state tick allocates nothing.
func BenchmarkNetworkTick(b *testing.B) {
	for _, bc := range []struct {
		name string
		load float64
		hot  bool
	}{{"sparse", 0.01, false}, {"light", 0.1, false}, {"saturated", 1.0, false}, {"hotspot", 1.0, true}} {
		b.Run(bc.name, func(b *testing.B) {
			const ports = 64
			n := MustNew("bench", ports, 8, 0)
			// The network buffers at most one packet per queue word:
			// entry registers plus an input and an output queue per port
			// per stage.
			capacity := ports * DefaultQueueWords * (1 + 2*n.Stages())
			free := make([]*Packet, 0, capacity)
			for i := 0; i < capacity; i++ {
				free = append(free, &Packet{})
			}
			sink := SinkFunc(func(p *Packet) bool {
				free = append(free, p)
				return true
			})
			for p := 0; p < ports; p++ {
				n.SetSink(p, sink)
			}
			r := sim.NewRand(1)
			var now sim.Cycle
			tick := func() {
				for src := 0; src < ports && len(free) > 0; src++ {
					if r.Float64() >= bc.load {
						continue
					}
					p := free[len(free)-1]
					*p = Packet{Dst: r.Intn(ports), Src: src, Words: 1, Kind: Read}
					if bc.hot {
						p.Dst, p.Words = 0, 2
					}
					if n.Offer(now, src, p) {
						free = free[:len(free)-1]
					}
				}
				n.Tick(now)
				now++
			}
			for i := 0; i < 1000; i++ {
				tick()
			}
			delivered := n.Delivered
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick()
			}
			b.ReportMetric(float64(n.Delivered-delivered)/float64(b.N), "pkts/op")
		})
	}
}
