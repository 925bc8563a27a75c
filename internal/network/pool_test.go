package network

import "testing"

// TestPoolSendRecycles checks the free list's hand-offs: Send reuses the
// packet put back last, a refused Send puts its packet straight back,
// and every field of a reused packet is overwritten, so it is stamped
// again.
func TestPoolSendRecycles(t *testing.T) {
	e, n, sinks := build(t, 64, 8)
	var pl Pool
	req := func(src int) *Packet { return &Packet{Dst: 9, Src: src, Words: 2, Kind: Write, Tag: uint64(src)} }

	if !pl.Send(n, e.Now(), 0, req(0)) {
		t.Fatal("first send refused")
	}
	e.Run(10)
	if len(sinks[9].got) != 1 {
		t.Fatalf("%d packets delivered, want 1", len(sinks[9].got))
	}
	first := sinks[9].got[0]

	// Fill port 1's two-word entry register with a fresh packet, then put
	// the delivered one back: the refused offer at port 1 takes it and
	// must return it to the list for the send from port 2.
	if !pl.Send(n, e.Now(), 1, req(1)) {
		t.Fatal("send into an empty entry register refused")
	}
	pl.Put(first)
	if pl.Send(n, e.Now(), 1, req(1)) {
		t.Fatal("send into a full entry register accepted")
	}
	now := e.Now()
	if !pl.Send(n, now, 2, req(2)) {
		t.Fatal("send from port 2 refused")
	}
	e.Run(10)
	var reused *Packet
	for _, p := range sinks[9].got[1:] {
		if p.Src == 2 {
			reused = p
		}
	}
	if reused != first {
		t.Fatalf("port 2 sent %p, want the refused packet %p back from the list", reused, first)
	}
	want := *req(2)
	want.Born, want.BornSet, want.enq, want.home = now, true, reused.enq, &pl
	if *reused != want {
		t.Fatalf("reused packet %+v, want %+v", *reused, want)
	}
}
