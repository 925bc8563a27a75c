package network

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// collector is a sink that records delivered packets.
type collector struct {
	got  []*Packet
	full bool // when true, refuse everything (to exercise backpressure)
}

func (c *collector) Offer(p *Packet) bool {
	if c.full {
		return false
	}
	c.got = append(c.got, p)
	return true
}

func build(t *testing.T, ports, radix int) (*sim.Engine, *Network, []*collector) {
	t.Helper()
	n, err := New("test", ports, radix, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sinks := make([]*collector, ports)
	for i := range sinks {
		sinks[i] = &collector{}
		n.SetSink(i, sinks[i])
	}
	e := sim.New()
	e.Register("net", n)
	return e, n, sinks
}

func TestNewValidation(t *testing.T) {
	if _, err := New("bad", 12, 8, 0); err == nil {
		t.Fatal("New accepted 12 ports with radix 8")
	}
	if _, err := New("bad", 8, 1, 0); err == nil {
		t.Fatal("New accepted radix 1")
	}
	n, err := New("ok", 64, 8, 0)
	if err != nil {
		t.Fatalf("New(64, 8): %v", err)
	}
	if n.Stages() != 2 || n.Ports() != 64 || n.Radix() != 8 {
		t.Fatalf("64-port radix-8: stages=%d ports=%d radix=%d", n.Stages(), n.Ports(), n.Radix())
	}
	if n.Name() != "ok" {
		t.Fatalf("Name() = %q", n.Name())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on bad config")
		}
	}()
	MustNew("bad", 10, 3, 0)
}

// TestStaticRouteReachesDestination is the core routing property: for every
// (src, dst) pair, tag routing terminates at dst. Exhaustive for the Cedar
// configuration (64 ports, radix 8) and two smaller shapes.
func TestStaticRouteReachesDestination(t *testing.T) {
	for _, cfg := range []struct{ ports, radix int }{{64, 8}, {16, 4}, {8, 2}} {
		n := MustNew("t", cfg.ports, cfg.radix, 0)
		for src := 0; src < cfg.ports; src++ {
			for dst := 0; dst < cfg.ports; dst++ {
				path := n.StaticRoute(src, dst)
				if len(path) != n.Stages() {
					t.Fatalf("%dx%d: path length %d, want %d", cfg.ports, cfg.radix, len(path), n.Stages())
				}
				if got := path[len(path)-1]; got != dst {
					t.Fatalf("%dx%d: route %d->%d ended at %d", cfg.ports, cfg.radix, src, dst, got)
				}
			}
		}
	}
}

// TestStaticRouteUnique checks the paper's claim that tag routing provides
// a unique path between any pair of ports: the path is a pure function of
// (src, dst), and distinct sources to the same destination share switches
// only as the digits coincide. We verify determinism and that two routes
// from one source diverge exactly at the first stage where the destination
// digits differ.
func TestStaticRouteUnique(t *testing.T) {
	n := MustNew("t", 64, 8, 0)
	for src := 0; src < 64; src += 7 {
		for d1 := 0; d1 < 64; d1++ {
			for d2 := d1 + 1; d2 < 64; d2 += 5 {
				p1, p2 := n.StaticRoute(src, d1), n.StaticRoute(src, d2)
				diverged := false
				for s := 0; s < len(p1); s++ {
					dig1, dig2 := n.digitAt(s, d1), n.digitAt(s, d2)
					if diverged {
						continue
					}
					if dig1 != dig2 {
						diverged = true
						if p1[s] == p2[s] {
							t.Fatalf("routes to %d and %d from %d share port at diverging stage %d", d1, d2, src, s)
						}
					} else if p1[s] != p2[s] {
						t.Fatalf("routes to %d and %d from %d diverged at stage %d before digits differ", d1, d2, src, s)
					}
				}
			}
		}
	}
}

// TestShuffleIsPermutation: the inter-stage wiring must be a bijection on
// ports, otherwise two wires would share a queue slot.
func TestShuffleIsPermutation(t *testing.T) {
	for _, cfg := range []struct{ ports, radix int }{{64, 8}, {16, 4}, {8, 2}, {27, 3}} {
		n := MustNew("t", cfg.ports, cfg.radix, 0)
		seen := make([]bool, cfg.ports)
		for i := 0; i < cfg.ports; i++ {
			j := n.shuffle(i)
			if j < 0 || j >= cfg.ports || seen[j] {
				t.Fatalf("%d ports radix %d: shuffle not a permutation at %d -> %d", cfg.ports, cfg.radix, i, j)
			}
			seen[j] = true
		}
	}
}

func TestSinglePacketDelivery(t *testing.T) {
	e, n, sinks := build(t, 64, 8)
	p := &Packet{Dst: 37, Src: 5, Words: 1, Kind: Read, Addr: 100}
	if !n.Offer(e.Now(), 5, p) {
		t.Fatal("empty network refused a packet")
	}
	if _, err := e.RunUntil(func() bool { return len(sinks[37].got) == 1 }, 50); err != nil {
		t.Fatalf("packet not delivered: %v", err)
	}
	for i, s := range sinks {
		want := 0
		if i == 37 {
			want = 1
		}
		if len(s.got) != want {
			t.Fatalf("sink %d got %d packets, want %d", i, len(s.got), want)
		}
	}
	if sinks[37].got[0] != p {
		t.Fatal("delivered packet is not the injected one")
	}
	if n.Delivered != 1 || n.Injected != 1 {
		t.Fatalf("counters: injected=%d delivered=%d", n.Injected, n.Delivered)
	}
}

// TestUnloadedLatency pins the forward-transit time of the 2-stage Cedar
// network: 2 cycles from injection to delivery (one per stage), which with
// the memory pipeline and the reverse trip composes to the paper's
// 8-cycle minimal latency.
func TestUnloadedLatency(t *testing.T) {
	e, n, sinks := build(t, 64, 8)
	var deliveredAt sim.Cycle = -1
	n.OnDeliver = func(now sim.Cycle, port int, p *Packet) { deliveredAt = now }
	inj := e.Now()
	n.Offer(inj, 0, &Packet{Dst: 63, Words: 1, Kind: Read})
	if _, err := e.RunUntil(func() bool { return len(sinks[63].got) == 1 }, 50); err != nil {
		t.Fatal(err)
	}
	// One entry-register cycle plus one per stage: 3 cycles. With the
	// 2-cycle memory service and the symmetric reverse trip this composes
	// to the paper's 8-cycle minimal global latency.
	if got := deliveredAt - inj; got != 3 {
		t.Fatalf("unloaded 2-stage transit = %d cycles, want 3", got)
	}
}

func TestAllToOneContention(t *testing.T) {
	e, n, sinks := build(t, 64, 8)
	// 8 sources all target port 0; only one per cycle can be delivered.
	for s := 0; s < 8; s++ {
		if !n.Offer(e.Now(), s*8, &Packet{Dst: 0, Src: s * 8, Words: 1, Kind: Read}) {
			t.Fatalf("injection %d refused", s)
		}
	}
	at, err := e.RunUntil(func() bool { return len(sinks[0].got) == 8 }, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Serialized delivery: at least one cycle apart, so >= 2+7 cycles.
	if at < 9 {
		t.Fatalf("8 conflicting packets delivered in %d cycles; contention not modeled", at)
	}
}

func TestDisjointTrafficIsParallel(t *testing.T) {
	e, n, sinks := build(t, 64, 8)
	// Identity traffic src i -> dst i is conflict-free in an omega network.
	for i := 0; i < 64; i++ {
		if !n.Offer(e.Now(), i, &Packet{Dst: i, Src: i, Words: 1, Kind: Read}) {
			t.Fatalf("injection %d refused", i)
		}
	}
	done := func() bool {
		for i := range sinks {
			if len(sinks[i].got) != 1 {
				return false
			}
		}
		return true
	}
	at, err := e.RunUntil(done, 100)
	if err != nil {
		t.Fatal(err)
	}
	if at > 6 {
		t.Fatalf("identity permutation took %d cycles; expected full parallelism (<=6)", at)
	}
}

func TestBackpressure(t *testing.T) {
	e, n, sinks := build(t, 64, 8)
	sinks[9].full = true
	// Saturate the path to port 9.
	injected := 0
	for c := 0; c < 40; c++ {
		if n.Offer(e.Now(), 1, &Packet{Dst: 9, Src: 1, Words: 1, Kind: Read}) {
			injected++
		}
		e.Step()
	}
	if len(sinks[9].got) != 0 {
		t.Fatal("full sink received packets")
	}
	if injected >= 40 {
		t.Fatal("backpressure never refused an injection")
	}
	inFlight := n.InFlight()
	if inFlight != injected {
		t.Fatalf("InFlight() = %d, want %d (all injected still buffered)", inFlight, injected)
	}
	// Release the sink: everything must drain, FIFO per path.
	sinks[9].full = false
	if _, err := e.RunUntil(func() bool { return len(sinks[9].got) == injected }, 500); err != nil {
		t.Fatalf("drain after backpressure: %v", err)
	}
	if n.InFlight() != 0 {
		t.Fatalf("InFlight() = %d after drain, want 0", n.InFlight())
	}
}

func TestMultiWordPacketsConsumeBandwidth(t *testing.T) {
	e, n, sinks := build(t, 64, 8)
	// Two 4-word packets on the same path take ~2x the link time of two
	// 1-word packets.
	n.Offer(e.Now(), 2, &Packet{Dst: 20, Src: 2, Words: 4, Kind: Write})
	e.Step()
	n.Offer(e.Now(), 2, &Packet{Dst: 20, Src: 2, Words: 4, Kind: Write})
	at4, err := e.RunUntil(func() bool { return len(sinks[20].got) == 2 }, 100)
	if err != nil {
		t.Fatal(err)
	}

	e2, n2, sinks2 := build(t, 64, 8)
	n2.Offer(e2.Now(), 2, &Packet{Dst: 20, Src: 2, Words: 1, Kind: Read})
	e2.Step()
	n2.Offer(e2.Now(), 2, &Packet{Dst: 20, Src: 2, Words: 1, Kind: Read})
	at1, err := e2.RunUntil(func() bool { return len(sinks2[20].got) == 2 }, 100)
	if err != nil {
		t.Fatal(err)
	}
	if at4 <= at1 {
		t.Fatalf("4-word packets (%d cycles) not slower than 1-word (%d cycles)", at4, at1)
	}
}

func TestOfferValidation(t *testing.T) {
	_, n, _ := build(t, 64, 8)
	for _, bad := range []*Packet{
		{Dst: -1, Words: 1},
		{Dst: 64, Words: 1},
		{Dst: 0, Words: 0},
		{Dst: 0, Words: 5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Offer accepted invalid packet %+v", bad)
				}
			}()
			n.Offer(0, 0, bad)
		}()
	}
}

// TestRandomTrafficConservation: everything injected is eventually
// delivered to the right sink, none duplicated, none lost.
func TestRandomTrafficConservation(t *testing.T) {
	e, n, sinks := build(t, 64, 8)
	r := sim.NewRand(11)
	want := make([]int, 64)
	injected := 0
	for cycle := 0; cycle < 600; cycle++ {
		if injected < 300 {
			src, dst := r.Intn(64), r.Intn(64)
			w := 1 + r.Intn(4)
			if n.Offer(e.Now(), src, &Packet{Dst: dst, Src: src, Words: w, Kind: Read, Tag: uint64(injected)}) {
				want[dst]++
				injected++
			}
		}
		e.Step()
	}
	total := func() int {
		tot := 0
		for i := range sinks {
			tot += len(sinks[i].got)
		}
		return tot
	}
	if _, err := e.RunUntil(func() bool { return total() == injected }, 20000); err != nil {
		t.Fatalf("drain: delivered %d of %d: %v", total(), injected, err)
	}
	seen := map[uint64]bool{}
	for i, s := range sinks {
		if len(s.got) != want[i] {
			t.Fatalf("sink %d: got %d, want %d", i, len(s.got), want[i])
		}
		for _, p := range s.got {
			if p.Dst != i {
				t.Fatalf("packet for %d delivered at %d", p.Dst, i)
			}
			if seen[p.Tag] {
				t.Fatalf("packet %d delivered twice", p.Tag)
			}
			seen[p.Tag] = true
		}
	}
}

// TestPerPathFIFO: two packets injected at the same source to the same
// destination arrive in order (single path, FIFO queues).
func TestPerPathFIFO(t *testing.T) {
	e, n, sinks := build(t, 16, 4)
	for i := 0; i < 10; i++ {
		for !n.Offer(e.Now(), 3, &Packet{Dst: 12, Src: 3, Words: 1, Kind: Read, Tag: uint64(i)}) {
			e.Step()
		}
		e.Step()
	}
	if _, err := e.RunUntil(func() bool { return len(sinks[12].got) == 10 }, 500); err != nil {
		t.Fatal(err)
	}
	for i, p := range sinks[12].got {
		if p.Tag != uint64(i) {
			t.Fatalf("out-of-order delivery on a single path: slot %d has tag %d", i, p.Tag)
		}
	}
}

// Property test: routing digit decomposition reconstructs the destination.
func TestDigitDecomposition(t *testing.T) {
	n := MustNew("t", 64, 8, 0)
	f := func(dRaw uint8) bool {
		d := int(dRaw) % 64
		rebuilt := 0
		for s := 0; s < n.Stages(); s++ {
			rebuilt = rebuilt*8 + n.digitAt(s, d)
		}
		return rebuilt == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// scanPick is the reference round-robin arbiter: the first claimant of a
// cyclic scan of the inputs starting at rr.
func scanPick(claim uint32, rr, radix int) int {
	for k := 0; k < radix; k++ {
		if i := (rr + k) % radix; claim&(1<<uint(i)) != 0 {
			return i
		}
	}
	return -1
}

// TestRRPickMatchesScan: the bitmask round-robin pick equals the cyclic
// scan for every claim mask and pointer, exhaustively up to radix 8. A
// pointer equal to the radix (what route stores after the last input
// wins) behaves as pointer 0.
func TestRRPickMatchesScan(t *testing.T) {
	for radix := 2; radix <= 8; radix++ {
		for claim := uint32(1); claim < 1<<uint(radix); claim++ {
			for rr := 0; rr <= radix; rr++ {
				want := scanPick(claim, rr%radix, radix)
				if got := rrPick(claim, uint8(rr)); got != want {
					t.Fatalf("radix %d claim %b rr %d: rrPick %d, scan %d", radix, claim, rr, got, want)
				}
			}
		}
	}
}

// TestRRPickMatchesScanRadix16 is the radix-16 property check.
func TestRRPickMatchesScanRadix16(t *testing.T) {
	f := func(claim uint16, rrRaw uint8) bool {
		if claim == 0 {
			return true
		}
		rr := int(rrRaw) % 17
		return rrPick(uint32(claim), uint8(rr)) == scanPick(uint32(claim), rr%16, 16)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestSyncSpecHelpers(t *testing.T) {
	tas := TestAndSet()
	if !tas.Test.Eval(0, tas.TestOperand) {
		t.Fatal("TestAndSet on a clear word must succeed")
	}
	if tas.Test.Eval(1, tas.TestOperand) {
		t.Fatal("TestAndSet on a set word must fail")
	}
	if got := tas.Op.Apply(0, tas.Operand); got != 1 {
		t.Fatalf("TestAndSet sets word to %d, want 1", got)
	}
	faa := FetchAndAdd(5)
	if !faa.Test.Eval(123, faa.TestOperand) {
		t.Fatal("FetchAndAdd test must always pass")
	}
	if got := faa.Op.Apply(7, faa.Operand); got != 12 {
		t.Fatalf("FetchAndAdd(5) applied to 7 = %d, want 12", got)
	}
}

func TestTestKindEval(t *testing.T) {
	cases := []struct {
		k    TestKind
		v, x int64
		want bool
	}{
		{TestAlways, 0, 0, true},
		{TestEQ, 3, 3, true}, {TestEQ, 3, 4, false},
		{TestNE, 3, 4, true}, {TestNE, 3, 3, false},
		{TestLT, 2, 3, true}, {TestLT, 3, 3, false},
		{TestLE, 3, 3, true}, {TestLE, 4, 3, false},
		{TestGT, 4, 3, true}, {TestGT, 3, 3, false},
		{TestGE, 3, 3, true}, {TestGE, 2, 3, false},
	}
	for _, c := range cases {
		if got := c.k.Eval(c.v, c.x); got != c.want {
			t.Errorf("%v.Eval(%d,%d) = %v, want %v", c.k, c.v, c.x, got, c.want)
		}
	}
}

func TestOpKindApply(t *testing.T) {
	cases := []struct {
		o    OpKind
		v, x int64
		want int64
	}{
		{OpRead, 9, 100, 9},
		{OpWrite, 9, 100, 100},
		{OpAdd, 9, 100, 109},
		{OpSub, 9, 100, -91},
		{OpAnd, 0b1100, 0b1010, 0b1000},
		{OpOr, 0b1100, 0b1010, 0b1110},
	}
	for _, c := range cases {
		if got := c.o.Apply(c.v, c.x); got != c.want {
			t.Errorf("%v.Apply(%d,%d) = %d, want %d", c.o, c.v, c.x, got, c.want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{Read: "read", Write: "write", Sync: "sync", Reply: "reply", Kind(99): "unknown"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if TestLT.String() != "<" || TestKind(99).String() != "?" {
		t.Error("TestKind.String misbehaves")
	}
	if OpAdd.String() != "add" || OpKind(99).String() != "?" {
		t.Error("OpKind.String misbehaves")
	}
}

// TestIdealNetworkLatencyMatchesReal: the contentionless fabric keeps
// the omega network's unloaded transit so ablations isolate contention
// only.
func TestIdealNetworkLatencyMatchesReal(t *testing.T) {
	n := MustNewIdeal("ideal", 64, 8)
	if !n.Ideal() {
		t.Fatal("Ideal() false")
	}
	got := []*Packet{}
	var at sim.Cycle = -1
	e := sim.New()
	n.SetSink(9, SinkFunc(func(p *Packet) bool {
		got = append(got, p)
		at = e.Now()
		return true
	}))
	e.Register("net", n)
	n.Offer(e.Now(), 3, &Packet{Dst: 9, Words: 1, Kind: Read})
	if _, err := e.RunUntil(func() bool { return len(got) == 1 }, 50); err != nil {
		t.Fatal(err)
	}
	if at != 3 {
		t.Fatalf("ideal transit = %d, want 3 (entry + 2 stages)", at)
	}
}

// TestIdealNetworkNoContention: 32 conflicting streams to one port are
// limited only by the port's delivery rate, with no switch queueing.
func TestIdealNetworkNoContention(t *testing.T) {
	n := MustNewIdeal("ideal", 64, 8)
	delivered := 0
	e := sim.New()
	for p := 0; p < 64; p++ {
		n.SetSink(p, SinkFunc(func(*Packet) bool { delivered++; return true }))
	}
	e.Register("net", n)
	for s := 0; s < 32; s++ {
		if !n.Offer(e.Now(), s, &Packet{Dst: 0, Src: s, Words: 1, Kind: Read}) {
			t.Fatal("ideal network refused an injection")
		}
	}
	at, err := e.RunUntil(func() bool { return delivered == 32 }, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Port-rate bound only: 3 transit + 31 serialized deliveries + slack.
	if at > 40 {
		t.Fatalf("ideal delivery took %d cycles", at)
	}
	if n.InFlight() != 0 {
		t.Fatal("in-flight accounting wrong")
	}
}

// TestIdealNetworkArrivalOrder: the ideal fabric delivers in arrival
// order — per port in injection order, and within a cycle across ports by
// arrival time — with mixed packet lengths spacing each port's deliveries
// by the previous packet's length, and a sink that refuses for whole
// windows of cycles holding packets back without reordering them.
func TestIdealNetworkArrivalOrder(t *testing.T) {
	const ports = 8
	n := MustNewIdeal("ideal", ports, 8)
	e := sim.New()
	refusing := func() bool { c := e.Now() % 40; return c >= 10 && c < 17 }
	for p := 0; p < ports; p++ {
		n.SetSink(p, SinkFunc(func(*Packet) bool { return !refusing() }))
	}
	type delivery struct {
		at   sim.Cycle
		port int
		p    *Packet
	}
	var got []delivery
	n.OnDeliver = func(now sim.Cycle, port int, p *Packet) {
		got = append(got, delivery{now, port, p})
	}
	e.Register("net", n)
	r := sim.NewRand(5)
	const total = 400
	for tag := 0; tag < total; {
		for k := r.Intn(4); k > 0 && tag < total; k-- {
			n.Offer(e.Now(), r.Intn(ports), &Packet{Dst: r.Intn(3), Words: 1 + r.Intn(4), Kind: Read, Tag: uint64(tag)})
			tag++
		}
		e.Step()
	}
	if _, err := e.RunUntil(func() bool { return n.InFlight() == 0 }, 10_000); err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("delivered %d of %d", len(got), total)
	}
	last := map[int]delivery{}
	for i, d := range got {
		if d.p.Dst != d.port {
			t.Fatalf("packet for %d delivered at %d", d.p.Dst, d.port)
		}
		if prev, ok := last[d.port]; ok {
			if d.p.Tag < prev.p.Tag {
				t.Fatalf("port %d delivered tag %d after %d", d.port, d.p.Tag, prev.p.Tag)
			}
			if d.at < prev.at+sim.Cycle(prev.p.Words) {
				t.Fatalf("port %d delivered at %d, %d cycles after a %d-word packet", d.port, d.at, d.at-prev.at, prev.p.Words)
			}
		}
		if i > 0 && got[i-1].at == d.at && got[i-1].p.Born > d.p.Born {
			t.Fatalf("cycle %d delivered a packet born at %d before one born at %d", d.at, got[i-1].p.Born, d.p.Born)
		}
		last[d.port] = d
	}
}

// TestDeliveryLinkCongestionPenalty pins the one hop that charges the
// congestion handshake: a packet that sat two or more cycles in a
// last-stage output queue holds its delivery link for Words+1 cycles,
// so the packet behind it on the same port leaves that much later. With
// a sink that never refuses, the same back-to-back pair is spaced Words
// cycles apart.
func TestDeliveryLinkCongestionPenalty(t *testing.T) {
	for _, words := range []int{1, 2} {
		for _, held := range []bool{false, true} {
			e, n, sinks := build(t, 64, 8)
			var at []sim.Cycle
			n.OnDeliver = func(now sim.Cycle, _ int, _ *Packet) { at = append(at, now) }
			sinks[9].full = held
			for i := 0; i < 2; i++ {
				for !n.Offer(e.Now(), 1, &Packet{Dst: 9, Src: 1, Words: words, Kind: Read}) {
					e.Step()
				}
				e.Step()
			}
			if held {
				e.Run(20)
				sinks[9].full = false
			}
			if _, err := e.RunUntil(func() bool { return len(at) == 2 }, 100); err != nil {
				t.Fatal(err)
			}
			want := sim.Cycle(words)
			if held {
				want++
			}
			if gap := at[1] - at[0]; gap != want {
				t.Errorf("%d-word packets, sink held %v: deliveries %v are %d cycles apart, want %d",
					words, held, at, gap, want)
			}
		}
	}
}
