// Package network models Cedar's two unidirectional global interconnection
// networks: multistage shuffle-exchange (omega) networks built from 8x8
// crossbar switches with 64-bit data paths, two-word queues on every switch
// input and output port, stage-to-stage flow control, and the tag-based
// self-routing scheme of Lawrie [Lawr75]. The forward network carries
// requests from computational elements and prefetch units to the global
// memory modules; the reverse network carries replies back.
//
// Packets consist of one to four 64-bit words; the first word carries the
// routing tag, control information and the memory address, exactly as in
// the paper. A packet occupies queue space equal to its word count and a
// link is busy for one cycle per word, so longer packets consume
// proportionally more bandwidth, and contention appears as queueing delay —
// the mechanism the paper identifies as the source of latency and
// interarrival degradation when more than two clusters issue prefetches.
package network

import "repro/internal/sim"

// Kind identifies the function of a packet.
type Kind uint8

// Packet kinds. Requests travel on the forward network, replies on the
// reverse network.
const (
	// Read requests one 64-bit word from global memory.
	Read Kind = iota
	// Write stores one 64-bit word to global memory; writes are posted
	// (the issuing CE does not stall) because Cedar's global memory
	// system is weakly ordered.
	Write
	// Sync is an indivisible synchronization instruction (Test-And-Set or
	// the Cedar Test-And-Operate family) executed by the synchronization
	// processor in the addressed memory module.
	Sync
	// Reply carries a datum (or a sync result) back to the requester.
	Reply
)

// String returns a short mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Sync:
		return "sync"
	case Reply:
		return "reply"
	}
	return "unknown"
}

// TestKind is the relational test of a Cedar Test-And-Operate
// synchronization instruction, applied to the current memory value.
type TestKind uint8

// Relational tests available to the synchronization processor.
const (
	TestAlways TestKind = iota // unconditional (plain fetch-and-op)
	TestEQ                     // value == operand
	TestNE                     // value != operand
	TestLT                     // value <  operand
	TestLE                     // value <= operand
	TestGT                     // value >  operand
	TestGE                     // value >= operand
)

// Eval applies the test to v against the test operand x.
func (t TestKind) Eval(v, x int64) bool {
	switch t {
	case TestAlways:
		return true
	case TestEQ:
		return v == x
	case TestNE:
		return v != x
	case TestLT:
		return v < x
	case TestLE:
		return v <= x
	case TestGT:
		return v > x
	case TestGE:
		return v >= x
	}
	return false
}

// String returns the relational symbol for the test.
func (t TestKind) String() string {
	switch t {
	case TestAlways:
		return "always"
	case TestEQ:
		return "=="
	case TestNE:
		return "!="
	case TestLT:
		return "<"
	case TestLE:
		return "<="
	case TestGT:
		return ">"
	case TestGE:
		return ">="
	}
	return "?"
}

// OpKind is the operation half of a Test-And-Operate instruction,
// performed on the memory word when the test succeeds.
type OpKind uint8

// Operations available to the synchronization processor.
const (
	OpRead  OpKind = iota // no modification; return the value
	OpWrite               // store the operand
	OpAdd                 // add the operand
	OpSub                 // subtract the operand
	OpAnd                 // bitwise and with the operand
	OpOr                  // bitwise or with the operand
)

// Apply returns the new memory value for current value v and operand x.
func (o OpKind) Apply(v, x int64) int64 {
	switch o {
	case OpRead:
		return v
	case OpWrite:
		return x
	case OpAdd:
		return v + x
	case OpSub:
		return v - x
	case OpAnd:
		return v & x
	case OpOr:
		return v | x
	}
	return v
}

// String returns a mnemonic for the operation.
func (o OpKind) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAdd:
		return "add"
	case OpSub:
		return "sub"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	}
	return "?"
}

// SyncSpec describes a Test-And-Operate synchronization instruction.
// Test-And-Set is the special case {TestEQ 0, OpWrite 1}.
type SyncSpec struct {
	Test        TestKind
	TestOperand int64
	Op          OpKind
	Operand     int64
}

// TestAndSet returns the spec of the classic Test-And-Set instruction.
func TestAndSet() SyncSpec {
	return SyncSpec{Test: TestEQ, TestOperand: 0, Op: OpWrite, Operand: 1}
}

// FetchAndAdd returns the spec of an unconditional fetch-and-add by delta,
// the primitive Cedar's runtime library uses for loop self-scheduling.
func FetchAndAdd(delta int64) SyncSpec {
	return SyncSpec{Test: TestAlways, Op: OpAdd, Operand: delta}
}

// Packet is a message on one of the global networks.
type Packet struct {
	// Dst is the destination port of the network the packet travels on:
	// a memory-module port on the forward network, a processor port on
	// the reverse network.
	Dst int
	// Src is the originating processor port, used to route the reply.
	Src int
	// Words is the packet length in 64-bit words (1..4), including the
	// header word. It determines queue occupancy and link time.
	Words int
	// Kind is the packet function.
	Kind Kind
	// Addr is the global word address the packet refers to.
	Addr uint64
	// Value is the datum for writes and replies.
	Value uint64
	// OK reports, on sync replies, whether the relational test succeeded.
	OK bool
	// Sync holds the Test-And-Operate specification for Kind == Sync.
	Sync SyncSpec
	// Phantom marks timing-only traffic: the packet consumes network and
	// memory-module bandwidth normally, but a phantom Write does not
	// modify the backing store. Workload code performs its real
	// arithmetic on the backing store through operation completion
	// callbacks, so phantom packets keep the timing and functional
	// models from double-writing. Sync packets are never phantom.
	Phantom bool
	// Tag matches replies to outstanding requests (for the prefetch
	// buffer's full/empty bookkeeping, tags are buffer slot indices).
	Tag uint64
	// Born is the cycle the packet was injected, for performance
	// monitoring. A network stamps it on first injection; a reply keeps
	// its request's Born and BornSet so the reverse network preserves the
	// request's stamp (round-trip latency is measured at reply delivery).
	// Pool.Send clears BornSet on a reused packet, so it is stamped
	// again.
	Born sim.Cycle
	// BornSet records whether Born has been stamped. A bare Born == 0
	// is ambiguous — cycle 0 is a legitimate injection time — so the
	// flag, not the value, decides whether Offer stamps.
	BornSet bool

	// enq is the cycle the packet entered its current queue (congestion
	// bookkeeping internal to the network).
	enq sim.Cycle
	// home is the Pool whose Send built the packet; nil for a packet
	// built without one.
	home *Pool
}

// Recycle puts a packet at the end of its life back on the Pool that
// sent it; a packet no Pool sent is left to the garbage collector. The
// caller must hold no other reference to it.
func (p *Packet) Recycle() {
	if p.home != nil {
		p.home.Put(p)
	}
}

// Pool is one issuer's free list of packets, last in first out. The
// issuer builds every request with Send, and puts each reply back once it
// has read it: the reply is the issuer's own request, rewritten in place
// by the memory module. A posted write has no reply; the memory module
// recycles it to its sender's Pool once it has stored it. A Pool is not
// safe for concurrent use; its Sends (the issuer's Tick) and Puts (the
// reverse network's Tick, a memory module's Tick) all run on the
// engine's one goroutine.
type Pool struct {
	free []*Packet
}

// Send offers the request v to n at input port src. Admission comes
// first: a refused offer (counted in n.Rejected, validated as Offer
// validates) takes no packet and copies nothing. An accepted request is
// copied once, into a packet taken from the list (a new one when the
// list is empty), which n then owns until the reply comes back.
// Copying drops the old stamp: with BornSet false in v, n stamps a
// reused packet afresh. v itself is only read, so a caller's request
// built on its stack stays there. The issuer must call Send only from
// its own Tick, never while a network ticks: a network may still read a
// packet it has just delivered until its Tick returns.
func (pl *Pool) Send(n *Network, now sim.Cycle, src int, v *Packet) bool {
	if !n.admit(src, v) {
		return false
	}
	var p *Packet
	if k := len(pl.free); k > 0 {
		p = pl.free[k-1]
		pl.free = pl.free[:k-1]
	} else {
		p = new(Packet)
	}
	*p = *v
	p.home = pl
	n.inject(now, src, p)
	return true
}

// Put returns p to the list. The caller must hold no other reference
// to it.
func (pl *Pool) Put(p *Packet) { pl.free = append(pl.free, p) }

// A Sink accepts packets delivered at a network output port (a memory
// module on the forward network, a CE or prefetch unit on the reverse
// network). Offer must return false, without side effects, when the sink
// cannot accept the packet this cycle; the network then retries, applying
// backpressure through its queues. A sink that accepts a packet owns it,
// but the network may still read it until its own Tick returns, so a
// sink may put it on a Pool, or Recycle it, only if that Pool's Sends
// run in some other Tick.
type Sink interface {
	Offer(p *Packet) bool
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(p *Packet) bool

// Offer implements Sink.
func (f SinkFunc) Offer(p *Packet) bool { return f(p) }
