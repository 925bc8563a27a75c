package network

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// goldenTraceCases pins the omega network's exact cycle-level behaviour:
// the digest covers every delivery, every offer outcome, every dropped
// packet and the final counters, so any change to arbitration order, queue
// occupancy or link timing shows up as a digest mismatch. A rewrite of the
// per-cycle path must reproduce them exactly; only a deliberate change to
// the network's timing may re-record them.
//
// hot 0 draws uniform destinations. hot > 0 sends seven offers in eight as
// 2-word packets to one of hot ports, so blocked trees build behind the
// hot ports and most queue heads wait on a busy or full output: the
// traffic where the network skips switches that cannot move.
var goldenTraceCases = []struct {
	ports, radix, queueWords, hot int
	digest                        string
}{
	{8, 2, 2, 0, "5e0afd7af66f3047d1626ed7bfdf2e8531b0b8389d9404a17bd12a07628c9de0"},
	{9, 3, 2, 0, "bd2dcb1ec0ce73d8fe637f969415e8e8cb4d4c0e67b78c6e52fe2e597b919b61"},
	{64, 8, 2, 0, "c4b3840f80113ebb09150b007ca97ca848444d2942105664910239132792c336"},
	{64, 8, 8, 0, "627d7cb98fad719e9928359d702207149fb75c5938aa9927a4771a53d3e6891b"},
	{256, 16, 2, 0, "fd8e3459542377eea3751add767c823abea16bd17bae36b456bf6fa0f7c7d337"},
	{8, 2, 2, 1, "941bda86b71a4d55f80dbbf733349bdba7b28356246062d9f4831c695d4472e3"},
	{9, 3, 2, 2, "3b5210aa820533fa6915b8698977fb5588648765883ee157150177f418948de2"},
	{64, 8, 2, 1, "3c5186513f810e4ea2f1f1de39c7b4505e649136bce8efd91a2a666dbcee6cf7"},
	{64, 8, 2, 2, "14e0cfb80a40a97712ee9b6096e105ec33ad1d5b900ad64f161d5807287e0942"},
	{64, 8, 8, 1, "d3f8c284e84de790e1f73e0d622acadaf212330af94e8c6fc31673d5850e69c5"},
}

// goldenTraceDigest drives seeded random traffic through sinks that
// randomly refuse packets, interleaving every stall and drop fault, and
// hashes what the network did. The network and the mean transit of the
// delivered packets are returned for the test's vacuity checks.
func goldenTraceDigest(ports, radix, queueWords, hot int) (string, *Network, float64) {
	const (
		trafficCycles = 1500
		drainCycles   = 3000
	)
	n := MustNew("golden", ports, radix, queueWords)
	r := sim.NewRand(uint64(ports*1000 + radix*10 + queueWords))
	h := sha256.New()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	// Sinks refuse a packet with probability 1/4, drawn from the shared
	// stream, so the order of sink calls is part of the digest too.
	for p := 0; p < ports; p++ {
		n.SetSink(p, SinkFunc(func(*Packet) bool { return r.Intn(4) != 0 }))
	}
	var transit sim.Cycle
	n.OnDeliver = func(c sim.Cycle, port int, p *Packet) {
		put(1, int64(c), int64(port), int64(p.Tag))
		transit += c - p.Born
	}
	tag := uint64(0)
	switchPorts := ports / radix
	for c := 0; c < trafficCycles+drainCycles; c++ {
		now := sim.Cycle(c)
		if c < trafficCycles {
			// Offered load varies in phases so both light and saturated
			// regimes are covered.
			offers := r.Intn(1 + ports*(1+(c/250)%3)/4)
			// This draw once chose a window of deferred offers; it stays
			// so the seeded stream, and with it every digest, is unchanged.
			_ = r.Intn(5)
			for k := 0; k < offers; k++ {
				src, dst := r.Intn(ports), r.Intn(ports)
				words := 1 + r.Intn(4)
				if hot > 0 && r.Intn(8) != 0 {
					dst, words = dst%hot*(ports/hot), 2
				}
				p := &Packet{Dst: dst, Src: src, Words: words, Kind: Read, Tag: tag}
				tag++
				ok := n.Offer(now, src, p)
				put(2, int64(c), int64(src), int64(p.Tag), b2i(ok))
			}
			goldenFaults(n, r, now, switchPorts, put)
		}
		n.Tick(now)
		if c%64 == 0 {
			putStages(n, put)
		}
	}
	put(n.Injected, n.Delivered, n.WordsIn, n.Rejected, n.Dropped, n.FaultStalls, int64(n.EntryPackets()), int64(n.InFlight()))
	putStages(n, put)
	return hex.EncodeToString(h.Sum(nil)), n, float64(transit) / float64(n.Delivered)
}

// goldenFaults applies, each with a small probability, one of every
// network fault kind at a random target.
func goldenFaults(n *Network, r *sim.Rand, now sim.Cycle, switchPorts int, put func(...int64)) {
	ports, radix, stages := n.Ports(), n.Radix(), n.Stages()
	allowOdd := func(p *Packet) bool { return p.Tag%2 == 1 }
	if r.Intn(16) == 0 {
		n.StallEntry(now, r.Intn(ports), sim.Cycle(1+r.Intn(8)))
	}
	if r.Intn(16) == 0 {
		n.StallSwitchOut(now, r.Intn(stages), r.Intn(switchPorts), r.Intn(radix), sim.Cycle(1+r.Intn(8)))
	}
	if r.Intn(16) == 0 {
		n.StallDelivery(now, r.Intn(ports), sim.Cycle(1+r.Intn(8)))
	}
	if r.Intn(24) == 0 {
		if p := n.DropEntryHead(r.Intn(ports), allowOdd); p != nil {
			put(3, int64(now), int64(p.Tag))
		}
	}
	if r.Intn(24) == 0 {
		if p := n.DropSwitchHead(r.Intn(stages), r.Intn(switchPorts), r.Intn(radix), nil); p != nil {
			put(4, int64(now), int64(p.Tag))
		}
	}
}

func putStages(n *Network, put func(...int64)) {
	for s := 0; s < n.Stages(); s++ {
		put(int64(n.StagePackets(s)))
	}
	put(int64(n.EntryPackets()))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestGoldenDeliveryTrace: the network's delivery trace under seeded
// random and hot-spot traffic, faults and refusing sinks matches the
// recorded digest for every shape, including a non-power-of-two radix.
func TestGoldenDeliveryTrace(t *testing.T) {
	for _, tc := range goldenTraceCases {
		name := fmt.Sprintf("p%d_r%d_q%d", tc.ports, tc.radix, tc.queueWords)
		if tc.hot > 0 {
			name += fmt.Sprintf("_hot%d", tc.hot)
		}
		t.Run(name, func(t *testing.T) {
			got, n, transit := goldenTraceDigest(tc.ports, tc.radix, tc.queueWords, tc.hot)
			if got != tc.digest {
				t.Errorf("delivery-trace digest %s, want %s", got, tc.digest)
			}
			// The stimulus must reach saturation, fire every fault kind
			// and still drain, or the digest pins too little.
			if n.InFlight() != 0 || n.Rejected == 0 || n.Dropped == 0 || n.FaultStalls == 0 {
				t.Errorf("vacuous trace: in flight %d, rejected %d, dropped %d, stalls %d",
					n.InFlight(), n.Rejected, n.Dropped, n.FaultStalls)
			}
			// Hot-spot traffic must back up: a packet's mean transit at
			// least three times the unloaded k+1 cycles.
			if unloaded := float64(n.Stages() + 1); tc.hot > 0 && transit < 3*unloaded {
				t.Errorf("hot spot does not back up: mean transit %.1f cycles, unloaded %.0f", transit, unloaded)
			}
		})
	}
}
