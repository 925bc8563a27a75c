package network

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// DefaultQueueWords is the per-port queue capacity of a Cedar network
// switch: two 64-bit words, as built.
const DefaultQueueWords = 2

// pktQueue is a FIFO of packets with capacity counted in words, kept as a
// fixed ring. Every packet is at least one word long, so a queue of
// capWords words never holds more than capWords packets: the ring has
// exactly capWords slots, and its length is the word capacity.
// An empty queue always accepts one packet even if the packet is longer
// than the capacity (word-level wormhole flow in the real switch lets a
// long packet stream through a short queue); a non-empty queue accepts
// only what fits.
type pktQueue struct {
	ring  []*Packet
	first int // ring index of the head packet
	n     int // packets queued
	words int // words queued
}

func (q *pktQueue) canAccept(w int) bool {
	return q.n == 0 || q.words+w <= len(q.ring)
}

// full reports whether the queue accepts no packet at all, which needs no
// look at the packet waiting to enter.
func (q *pktQueue) full() bool {
	return q.words >= len(q.ring)
}

// agePenalty returns the extra handshake cycle a transfer costs when the
// departing packet had to sit in its queue behind congestion. A smooth
// pipelined stream moves every packet one hop per cycle (preserving the
// 1-cycle minimal interarrival); once queues back up, each restarted
// transfer pays an arbitration/handshake cycle, dropping the effective
// port rate toward half — the "specific implementation constraints"
// [Turn93] the paper identifies as the cause of the latency and
// interarrival degradation beyond two clusters.
//
// The penalty is charged only on the delivery link, which holds its port
// for Words+1 cycles when the packet sat two or more cycles in a
// last-stage output queue. Every other hop pushes the packet into its
// next queue, re-stamping enq, in the same cycle it leaves, so the
// penalty there would always be zero and is not computed.
func agePenalty(p *Packet, now sim.Cycle) sim.Cycle {
	if now-p.enq >= 2 {
		return 1
	}
	return 0
}

func (q *pktQueue) push(p *Packet, now sim.Cycle) {
	p.enq = now
	i := q.first + q.n
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = p
	q.n++
	q.words += p.Words
}

func (q *pktQueue) head() *Packet {
	if q.n == 0 {
		return nil
	}
	return q.ring[q.first]
}

func (q *pktQueue) pop() *Packet {
	p := q.ring[q.first]
	q.ring[q.first] = nil
	if q.first++; q.first == len(q.ring) {
		q.first = 0
	}
	q.n--
	q.words -= p.Words
	return p
}

// crossbar is one r x r switch: r input queues, r output queues,
// round-robin arbitration per output, one packet transfer per output per
// cycle at one word per cycle. inMask/outMask hold one bit per non-empty
// input/output queue, so the network visits only queues with packets —
// in ascending port order, the order a full scan would visit them.
type crossbar struct {
	in        []pktQueue
	out       []pktQueue
	rr        []uint8     // round-robin arbitration pointer per output
	outFreeAt []sim.Cycle // internal transfer path busy-until, per output
	inMask    uint32
	outMask   uint32

	// dig[i] is the routing digit of input i's head packet, set when the
	// head reaches the front of its queue, so route reads no packet to
	// find which output each head wants.
	dig [16]uint8

	// routeAt is the first cycle route could move a packet. route sets it
	// when it moves nothing: to the earliest busy-until among the wanted
	// outputs that were busy, or Never if every wanted output was full.
	// A new input head, a dropped input head or an output pop resets it
	// to 0.
	routeAt sim.Cycle
}

// route moves packets from input queues to output queues according to
// their heads' routing digits. Each output accepts at most one packet per
// transfer slot; blocked heads cause head-of-line blocking, which is how
// contention propagates upstream in the real switch. digits is the
// stage's routing-digit table. route reports whether it moved a packet.
func (x *crossbar) route(now sim.Cycle, digits []uint8) bool {
	// One pass over non-empty inputs: which output does each head want?
	// A head exposed by a move below is not in this snapshot, so it routes
	// no earlier than the next cycle.
	var wantMask uint32 // outputs with at least one claimant
	var claim [16]uint32
	for m := x.inMask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		d := x.dig[i]
		claim[d] |= 1 << uint(i)
		wantMask |= 1 << d
	}
	moved := false
	retry := sim.Never
	for m := wantMask; m != 0; m &= m - 1 {
		o := bits.TrailingZeros32(m)
		if t := x.outFreeAt[o]; t > now {
			retry = min(retry, t)
			continue
		}
		if x.out[o].full() {
			continue // output full: everyone wanting o stalls
		}
		i := rrPick(claim[o], x.rr[o])
		p := x.in[i].head()
		if !x.out[o].canAccept(p.Words) {
			continue // the winner does not fit: everyone wanting o stalls
		}
		x.out[o].push(x.in[i].pop(), now)
		x.nextHead(i, digits)
		x.outMask |= 1 << uint(o)
		x.outFreeAt[o] = now + sim.Cycle(p.Words)
		x.rr[o] = uint8(i + 1)
		moved = true
	}
	if !moved {
		x.routeAt = retry
	}
	return moved
}

// pushIn queues p on input in. A packet that becomes the input's head has
// its routing digit recorded and may move, so the switch stops idling.
func (x *crossbar) pushIn(in int32, p *Packet, now sim.Cycle, digits []uint8) {
	q := &x.in[in]
	if q.push(p, now); q.n == 1 {
		x.dig[in] = digits[p.Dst]
		x.inMask |= 1 << uint(in)
		x.routeAt = 0
	}
}

// nextHead records input i's next head packet, if it has one, after its
// head left the queue.
func (x *crossbar) nextHead(i int, digits []uint8) {
	if h := x.in[i].head(); h != nil {
		x.dig[i] = digits[h.Dst]
	} else {
		x.inMask &^= 1 << uint(i)
	}
}

// popOut removes the head of output queue o.
func (x *crossbar) popOut(o int) {
	q := &x.out[o]
	q.pop()
	x.routeAt = 0
	if q.n == 0 {
		x.outMask &^= 1 << uint(o)
	}
}

// rrPick returns the round-robin winner among the inputs set in claim
// (which must be non-zero): the lowest claimant at or above rr, else the
// lowest claimant — the first hit of a cyclic scan of the inputs starting
// at rr. An rr equal to the radix masks off every claimant and so wraps to
// the scan from 0.
func rrPick(claim uint32, rr uint8) int {
	if hi := claim >> rr << rr; hi != 0 {
		return bits.TrailingZeros32(hi)
	}
	return bits.TrailingZeros32(claim)
}

// wireEnd is one end of a shuffle wire: input queue in of switch sw in the
// next column.
type wireEnd struct {
	sw, in int32
}

// Network is a k-stage omega network of r x r crossbars with N = r^k
// ports, tag-routed most-significant-digit first, with an r-ary perfect
// shuffle wiring before every stage (Lawrie's shuffle-exchange topology).
type Network struct {
	name   string
	ports  int
	radix  int
	stages int

	sw [][]crossbar // [stage][switch]

	// inOcc[s] and outOcc[s] hold one bit per switch of stage s with a
	// non-empty input or output queue, so a pass visits only switches
	// with packets, in ascending switch order, the order a full scan
	// would visit them.
	inOcc, outOcc [][]uint64

	// wire[p] is where the shuffle wiring takes output port p of one
	// column (or entry register p): the same permutation before every
	// stage. digits[s][dst] is the routing digit of destination dst at
	// stage s. Both are tables of shuffle and digitAt, built once so the
	// per-cycle path does no division.
	wire   []wireEnd
	digits [][]uint8

	// entry is the per-input-port register stage between a source and the
	// first switch column; it costs one cycle, so a k-stage network has a
	// k+1 cycle unloaded transit (3 cycles for Cedar's 2-stage networks,
	// composing with the 2-cycle memory pipeline to the paper's 8-cycle
	// minimal round-trip latency).
	entry     []pktQueue
	entryFree []sim.Cycle
	entryMask []uint64 // bit p set when entry[p] holds a packet

	sinks       []Sink
	linkFreeAt  [][]sim.Cycle // inter-stage link busy, [stage][outPort]
	deliverFree []sim.Cycle

	// ideal selects the contentionless fabric of NewIdeal; idealFlight
	// holds its in-flight packets.
	ideal       bool
	idealFlight []idealPkt

	waker sim.Waker

	// OnDeliver, if non-nil, observes every packet as it leaves the
	// network, for performance monitoring.
	OnDeliver func(now sim.Cycle, port int, p *Packet)

	// Counters.
	Injected    int64
	Delivered   int64
	WordsIn     int64
	Rejected    int64 // injection attempts refused by a full entry queue
	Dropped     int64 // packets removed by injected drop faults
	FaultStalls int64 // stall-fault windows applied to ports and links
}

// New builds an omega network with the given number of ports. ports must
// be a power of radix and radix must be at least 2 (and at most 16).
// queueWords <= 0 selects DefaultQueueWords.
func New(name string, ports, radix, queueWords int) (*Network, error) {
	if radix < 2 || radix > 16 {
		return nil, fmt.Errorf("network %s: radix %d outside 2..16", name, radix)
	}
	stages := 0
	for n := 1; n < ports; n *= radix {
		stages++
		if stages > 16 {
			break
		}
	}
	if pow(radix, stages) != ports || ports < radix {
		return nil, fmt.Errorf("network %s: ports %d is not a power of radix %d", name, ports, radix)
	}
	if queueWords <= 0 {
		queueWords = DefaultQueueWords
	}
	n := &Network{
		name:        name,
		ports:       ports,
		radix:       radix,
		stages:      stages,
		sinks:       make([]Sink, ports),
		entryFree:   make([]sim.Cycle, ports),
		deliverFree: make([]sim.Cycle, ports),
		entryMask:   make([]uint64, (ports+63)/64),
		wire:        make([]wireEnd, ports),
		digits:      make([][]uint8, stages),
	}
	// Every queue and ring slot of the network comes from one backing
	// array each: the entry registers first, then each stage's switch
	// inputs and outputs.
	queues := make([]pktQueue, ports*(1+2*stages))
	slots := make([]*Packet, len(queues)*queueWords)
	for i := range queues {
		queues[i].ring = slots[i*queueWords : (i+1)*queueWords : (i+1)*queueWords]
	}
	n.entry, queues = queues[:ports], queues[ports:]
	switches := ports / radix
	xbars := make([]crossbar, stages*switches)
	rr := make([]uint8, stages*ports)
	outFree := make([]sim.Cycle, stages*ports)
	digits := make([]uint8, stages*ports)
	n.sw = make([][]crossbar, stages)
	n.linkFreeAt = make([][]sim.Cycle, stages)
	occWords := (switches + 63) / 64
	occ := make([]uint64, 2*stages*occWords)
	n.inOcc = make([][]uint64, stages)
	n.outOcc = make([][]uint64, stages)
	for s := 0; s < stages; s++ {
		n.sw[s], xbars = xbars[:switches], xbars[switches:]
		for j := range n.sw[s] {
			x := &n.sw[s][j]
			x.in, queues = queues[:radix], queues[radix:]
			x.out, queues = queues[:radix], queues[radix:]
			x.rr, rr = rr[:radix], rr[radix:]
			x.outFreeAt, outFree = outFree[:radix], outFree[radix:]
		}
		n.inOcc[s], occ = occ[:occWords], occ[occWords:]
		n.outOcc[s], occ = occ[:occWords], occ[occWords:]
		n.linkFreeAt[s] = make([]sim.Cycle, ports)
		n.digits[s], digits = digits[:ports], digits[ports:]
		for dst := range n.digits[s] {
			n.digits[s][dst] = uint8(n.digitAt(s, dst))
		}
	}
	for p := range n.wire {
		w := n.shuffle(p)
		n.wire[p] = wireEnd{sw: int32(w / radix), in: int32(w % radix)}
	}
	return n, nil
}

// MustNew is New, panicking on configuration errors. Intended for the
// fixed machine-assembly code paths where the configuration is validated
// at machine construction.
func MustNew(name string, ports, radix, queueWords int) *Network {
	n, err := New(name, ports, radix, queueWords)
	if err != nil {
		panic(err)
	}
	return n
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// Ports returns the number of input (and output) ports.
func (n *Network) Ports() int { return n.ports }

// Stages returns the number of switch stages.
func (n *Network) Stages() int { return n.stages }

// Radix returns the switch radix.
func (n *Network) Radix() int { return n.radix }

// Name returns the network's name ("forward" or "reverse" in a Cedar).
func (n *Network) Name() string { return n.name }

// shuffle is the r-ary perfect shuffle on ports: a left rotation of the
// base-r digit string of i.
func (n *Network) shuffle(i int) int {
	return (i*n.radix)%n.ports + (i*n.radix)/n.ports
}

// digitAt extracts the routing digit used at stage s: destination digits
// most-significant first.
func (n *Network) digitAt(s, dst int) int {
	return (dst / pow(n.radix, n.stages-1-s)) % n.radix
}

// SetSink attaches the consumer of packets delivered at output port p.
func (n *Network) SetSink(p int, s Sink) {
	n.sinks[p] = s
}

// Offer injects a packet at input port src. It returns false when the
// first-stage input queue cannot accept the packet this cycle; the source
// must retry (this is how backpressure reaches the processors).
func (n *Network) Offer(now sim.Cycle, src int, p *Packet) bool {
	if !n.admit(src, p) {
		return false
	}
	n.inject(now, src, p)
	return true
}

// admit validates p and reports whether input port src accepts it this
// cycle, counting a refusal in Rejected. It neither stamps nor keeps p.
func (n *Network) admit(src int, p *Packet) bool {
	if p.Dst < 0 || p.Dst >= n.ports {
		panic(fmt.Sprintf("network %s: packet destination %d out of range [0,%d)", n.name, p.Dst, n.ports))
	}
	if p.Words < 1 || p.Words > 4 {
		panic(fmt.Sprintf("network %s: packet of %d words (must be 1..4)", n.name, p.Words))
	}
	if n.ideal || n.entry[src].canAccept(p.Words) {
		return true
	}
	n.Rejected++
	return false
}

// inject takes an admitted packet into the network at input port src.
func (n *Network) inject(now sim.Cycle, src int, p *Packet) {
	if !p.BornSet {
		// Stamp the injection time once; replies carry BornSet from the
		// original request so round-trip latency can be measured at the
		// reverse network's delivery — even for requests genuinely
		// injected at cycle 0, which a Born == 0 test would re-stamp.
		p.Born = now
		p.BornSet = true
	}
	if n.ideal {
		// The packet reaches its output port after the unloaded transit
		// (one cycle per stage plus the entry register), subject only to
		// that port's one-word-per-cycle delivery rate and the sink's
		// acceptance.
		n.idealFlight = append(n.idealFlight, idealPkt{p: p, arriveAt: now + sim.Cycle(n.stages+1)})
	} else {
		n.entry[src].push(p, now)
		n.entryMask[src>>6] |= 1 << uint(src&63)
	}
	n.Injected++
	n.WordsIn += int64(p.Words)
	n.wake()
}

// AttachWaker implements sim.WakeSink: the engine hands the network its
// own Handle at registration. A network reports sim.Never only when it is
// drained, so the only stimulus that must wake it is an accepted Offer
// (a rejected Offer implies a non-empty entry queue — not drained).
func (n *Network) AttachWaker(w sim.Waker) { n.waker = w }

func (n *Network) wake() {
	if n.waker != nil {
		n.waker.Wake()
	}
}

// Tick advances the network one cycle: deliver from the last stage,
// advance inter-stage links, route inside each crossbar, then drain the
// entry registers — processed downstream-first so a packet advances at
// most one stage per cycle while freed space propagates upstream
// immediately.
func (n *Network) Tick(now sim.Cycle) {
	if n.ideal {
		n.tickIdeal(now)
		return
	}
	last := n.stages - 1
	// Delivery links: last-stage output queues to sinks.
	occ := n.outOcc[last]
	for wi, word := range occ {
		for m := word; m != 0; m &= m - 1 {
			swi := wi<<6 | bits.TrailingZeros64(m)
			x := &n.sw[last][swi]
			port0 := swi * n.radix
			for om := x.outMask; om != 0; om &= om - 1 {
				o := bits.TrailingZeros32(om)
				port := port0 + o
				if n.deliverFree[port] > now {
					continue
				}
				q := &x.out[o]
				p := q.head()
				sink := n.sinks[port]
				if sink == nil {
					panic(fmt.Sprintf("network %s: delivery to port %d with no sink", n.name, port))
				}
				if !sink.Offer(p) {
					continue
				}
				x.popOut(o)
				n.deliverFree[port] = now + sim.Cycle(p.Words) + agePenalty(p, now)
				n.Delivered++
				if n.OnDeliver != nil {
					n.OnDeliver(now, port, p)
				}
			}
			if x.outMask == 0 {
				occ[wi] &^= 1 << uint(swi&63)
			}
		}
	}
	// Inter-stage links: stage s-1 outputs to stage s inputs through the
	// shuffle wiring, one word per cycle per link.
	for s := last; s >= 1; s-- {
		free := n.linkFreeAt[s-1]
		next, nextOcc, digits := n.sw[s], n.inOcc[s], n.digits[s]
		occ := n.outOcc[s-1]
		for wi, word := range occ {
			for m := word; m != 0; m &= m - 1 {
				swi := wi<<6 | bits.TrailingZeros64(m)
				x := &n.sw[s-1][swi]
				port0 := swi * n.radix
				for om := x.outMask; om != 0; om &= om - 1 {
					o := bits.TrailingZeros32(om)
					port := port0 + o
					if free[port] > now {
						continue
					}
					w := n.wire[port]
					dx := &next[w.sw]
					q := &dx.in[w.in]
					if q.full() {
						continue
					}
					p := x.out[o].head()
					if !q.canAccept(p.Words) {
						continue
					}
					dx.pushIn(w.in, p, now, digits)
					nextOcc[w.sw>>6] |= 1 << uint(w.sw&63)
					x.popOut(o)
					free[port] = now + sim.Cycle(p.Words)
				}
				if x.outMask == 0 {
					occ[wi] &^= 1 << uint(swi&63)
				}
			}
		}
	}
	// Crossbar internal routing, downstream stages first.
	for s := last; s >= 0; s-- {
		digits := n.digits[s]
		in, out := n.inOcc[s], n.outOcc[s]
		for wi, word := range in {
			for m := word; m != 0; m &= m - 1 {
				swi := wi<<6 | bits.TrailingZeros64(m)
				x := &n.sw[s][swi]
				if x.routeAt > now || !x.route(now, digits) {
					continue
				}
				out[wi] |= 1 << uint(swi&63)
				if x.inMask == 0 {
					in[wi] &^= 1 << uint(swi&63)
				}
			}
		}
	}
	// Entry registers feed the first switch column through the shuffle
	// wiring, one word per cycle per port. Processed last so an injected
	// packet is routed no earlier than the following cycle.
	first, firstOcc, digits := n.sw[0], n.inOcc[0], n.digits[0]
	for wi, word := range n.entryMask {
		for m := word; m != 0; m &= m - 1 {
			port := wi<<6 | bits.TrailingZeros64(m)
			if n.entryFree[port] > now {
				continue
			}
			w := n.wire[port]
			dx := &first[w.sw]
			dq := &dx.in[w.in]
			if dq.full() {
				continue
			}
			q := &n.entry[port]
			p := q.head()
			if !dq.canAccept(p.Words) {
				continue
			}
			dx.pushIn(w.in, p, now, digits)
			firstOcc[w.sw>>6] |= 1 << uint(w.sw&63)
			q.pop()
			if q.n == 0 {
				n.entryMask[wi] &^= 1 << uint(port&63)
			}
			n.entryFree[port] = now + sim.Cycle(p.Words)
		}
	}
}

// InFlight reports the number of packets currently buffered anywhere in
// the network. Accepted injections, deliveries, and drop faults are the
// only ways a packet enters or leaves, so the counter arithmetic is
// exact; keeping this O(1) matters because idle predicates poll it every
// cycle.
func (n *Network) InFlight() int {
	return int(n.Injected - n.Delivered - n.Dropped)
}

// NextEvent implements sim.IdleComponent: a drained network has nothing
// to move, and packets otherwise make progress (or retry blocked hops)
// every cycle. New injections arrive via Offer, which is external
// stimulus, so an empty network reports Never.
func (n *Network) NextEvent(now sim.Cycle) sim.Cycle {
	if n.InFlight() > 0 {
		return now
	}
	return sim.Never
}

// StaticRoute returns the sequence of output ports visited by a packet
// from src to dst, without simulating. It exists for tests and for
// topology introspection: the omega tag-routing scheme gives a unique
// path for every (src, dst) pair.
func (n *Network) StaticRoute(src, dst int) []int {
	path := make([]int, 0, n.stages)
	at := src
	for s := 0; s < n.stages; s++ {
		at = n.shuffle(at)
		sw := at / n.radix
		out := sw*n.radix + n.digitAt(s, dst)
		path = append(path, out)
		at = out
	}
	return path
}
