package network

import (
	"testing"

	"repro/internal/sim"
)

// faultRig is a one-stage 8-port network with a capture sink per port.
type faultRig struct {
	eng *sim.Engine
	n   *Network
	got [][]*Packet
}

func newFaultRig(t *testing.T) *faultRig {
	t.Helper()
	r := &faultRig{eng: sim.New(), n: MustNew("t", 8, 8, 0), got: make([][]*Packet, 8)}
	for p := 0; p < 8; p++ {
		port := p
		r.n.SetSink(port, SinkFunc(func(pk *Packet) bool {
			r.got[port] = append(r.got[port], pk)
			return true
		}))
	}
	r.eng.Register("net", r.n)
	return r
}

func (r *faultRig) drain(t *testing.T) sim.Cycle {
	t.Helper()
	at, err := r.eng.RunUntil(func() bool { return r.n.InFlight() == 0 }, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	return at
}

func TestStallEntryDelaysTransit(t *testing.T) {
	// Baseline: unloaded transit of a 1-stage network.
	r := newFaultRig(t)
	r.n.Offer(r.eng.Now(), 0, &Packet{Dst: 3, Words: 1, Kind: Read})
	base := r.drain(t)

	// Same packet with the entry register stalled for 20 cycles.
	r2 := newFaultRig(t)
	r2.n.StallEntry(r2.eng.Now(), 0, 20)
	r2.n.Offer(r2.eng.Now(), 0, &Packet{Dst: 3, Words: 1, Kind: Read})
	stalled := r2.drain(t)
	if stalled != base+20 {
		t.Fatalf("stalled transit = %d, want base %d + 20", stalled, base)
	}
	if r2.n.FaultStalls != 1 {
		t.Fatalf("FaultStalls = %d, want 1", r2.n.FaultStalls)
	}
	if len(r2.got[3]) != 1 {
		t.Fatalf("packet not delivered after stall window")
	}
}

func TestStallDeliveryDelaysTransit(t *testing.T) {
	// A delivery-link stall window [0,15) holds the packet at the last
	// stage until the window expires: it delivers at cycle 15 and the
	// network observes the drain one cycle later, regardless of how early
	// the packet reached the output queue.
	r := newFaultRig(t)
	r.n.StallDelivery(r.eng.Now(), 3, 15)
	r.n.Offer(r.eng.Now(), 0, &Packet{Dst: 3, Words: 1, Kind: Read})
	if got := r.drain(t); got != 16 {
		t.Fatalf("delivery-stalled drain at %d, want 16 (delivery at window expiry 15)", got)
	}
	if len(r.got[3]) != 1 {
		t.Fatalf("packet not delivered after delivery stall")
	}
}

func TestDropEntryHeadKeepsInFlightExact(t *testing.T) {
	r := newFaultRig(t)
	r.n.Offer(r.eng.Now(), 0, &Packet{Dst: 3, Words: 1, Kind: Read, Tag: 7})
	if r.n.InFlight() != 1 {
		t.Fatalf("InFlight = %d before drop, want 1", r.n.InFlight())
	}
	pk := r.n.DropEntryHead(0, nil)
	if pk == nil || pk.Tag != 7 {
		t.Fatalf("DropEntryHead returned %+v, want the offered packet", pk)
	}
	if r.n.InFlight() != 0 || r.n.Dropped != 1 {
		t.Fatalf("InFlight = %d, Dropped = %d after drop, want 0, 1", r.n.InFlight(), r.n.Dropped)
	}
	// The drained network must park again (idle predicates poll InFlight).
	if ne := r.n.NextEvent(r.eng.Now()); ne != sim.Never {
		t.Fatalf("NextEvent = %d after drop drained the network, want Never", ne)
	}
	r.eng.Run(50)
	if len(r.got[3]) != 0 {
		t.Fatalf("dropped packet was delivered")
	}
}

func TestDropRespectsAllowPredicate(t *testing.T) {
	r := newFaultRig(t)
	r.n.Offer(r.eng.Now(), 0, &Packet{Dst: 3, Words: 1, Kind: Sync})
	if pk := r.n.DropEntryHead(0, func(p *Packet) bool { return p.Kind != Sync }); pk != nil {
		t.Fatalf("drop of a non-droppable packet succeeded: %+v", pk)
	}
	if r.n.Dropped != 0 {
		t.Fatalf("Dropped = %d after refused drop, want 0", r.n.Dropped)
	}
	if r.drain(t); len(r.got[3]) != 1 {
		t.Fatalf("refused-drop packet not delivered")
	}
}

func TestDropSwitchHead(t *testing.T) {
	r := newFaultRig(t)
	r.n.Offer(r.eng.Now(), 0, &Packet{Dst: 3, Words: 1, Kind: Read, Tag: 1})
	// After one cycle the packet has left the entry register for an input
	// queue of the (single) switch column, where it routes no earlier than
	// the next cycle.
	r.eng.Run(1)
	if r.n.EntryPackets() != 0 {
		t.Fatalf("packet still in entry register after 1 cycle")
	}
	wired := r.n.shuffle(0)
	if pk := r.n.DropSwitchHead(0, wired/r.n.Radix(), wired%r.n.Radix(), nil); pk == nil || pk.Tag != 1 {
		t.Fatalf("DropSwitchHead = %+v, want the offered packet", pk)
	}
	if r.n.InFlight() != 0 || r.n.Dropped != 1 {
		t.Fatalf("after switch drop: InFlight %d, Dropped %d; want 0, 1", r.n.InFlight(), r.n.Dropped)
	}
	// The emptied switch routes the next packet through the same input.
	r.n.Offer(r.eng.Now(), 0, &Packet{Dst: 3, Words: 1, Kind: Read, Tag: 2})
	r.drain(t)
	if len(r.got[3]) != 1 || r.got[3][0].Tag != 2 {
		t.Fatalf("port 3 got %d packets, want only the second", len(r.got[3]))
	}
}

// TestDropWakesIdleSwitch: a switch whose round-robin winner does not fit
// its output stalls every claimant of that output and goes idle; dropping
// the winner must let the next claimant, which fits, move on the next
// cycle, as it would if the switch routed every cycle.
func TestDropWakesIdleSwitch(t *testing.T) {
	// Four ports of 2x2 switches: sources 0 and 1 reach stage-1 switch 0
	// on inputs 0 and 1, and destination 0 is that switch's output 0.
	n := MustNew("t", 4, 2, 2)
	accept := false
	for p := 0; p < 4; p++ {
		n.SetSink(p, SinkFunc(func(*Packet) bool { return accept }))
	}
	now := sim.Cycle(0)
	run := func(cycles int) {
		for i := 0; i < cycles; i++ {
			n.Tick(now)
			now++
		}
	}
	x := &n.sw[1][0]
	// A 1-word packet fills half of output 0 and stays there, the sink
	// refusing it; output 0's round-robin pointer now favours input 1.
	n.Offer(now, 0, &Packet{Dst: 0, Words: 1, Tag: 1})
	run(6)
	// A 2-word packet waits on input 1 and a 1-word packet on input 0:
	// input 1 wins output 0 but does not fit, so both stall.
	n.Offer(now, 1, &Packet{Dst: 0, Words: 2, Tag: 2})
	run(6)
	n.Offer(now, 0, &Packet{Dst: 0, Words: 1, Tag: 3})
	run(6)
	if x.out[0].n != 1 || x.in[0].n != 1 || x.in[1].n != 1 {
		t.Fatalf("set-up: output 0 holds %d, inputs %d and %d; want 1, 1, 1", x.out[0].n, x.in[0].n, x.in[1].n)
	}
	if pk := n.DropSwitchHead(1, 0, 1, nil); pk == nil || pk.Tag != 2 {
		t.Fatalf("dropped %v, want the 2-word packet", pk)
	}
	run(1)
	if x.out[0].n != 2 || x.in[0].n != 0 {
		t.Fatalf("after the drop: output 0 holds %d, input 0 %d; want the 1-word packet moved (2, 0)", x.out[0].n, x.in[0].n)
	}
}

func TestFaultsAreNoOpsOnIdealNetwork(t *testing.T) {
	n := MustNewIdeal("i", 8, 8)
	n.StallEntry(0, 0, 100)
	n.StallDelivery(0, 0, 100)
	if pk := n.DropEntryHead(0, nil); pk != nil {
		t.Fatalf("ideal DropEntryHead returned %+v", pk)
	}
	if n.FaultStalls != 0 || n.Dropped != 0 {
		t.Fatalf("ideal network accrued fault counters: stalls %d drops %d", n.FaultStalls, n.Dropped)
	}
}
