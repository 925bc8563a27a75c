// Package isa defines the micro-operation model that workloads use to
// drive the simulated Cedar machine.
//
// The Alliant CE executes a 68020-derived instruction set augmented with
// vector instructions; modeling that ISA bit-for-bit would add nothing to
// the performance questions the paper studies. Instead, workloads are
// written as programs over a small set of micro-operations that capture
// exactly the behaviours the paper's results depend on: scalar compute
// time, register-memory vector operations with one memory operand stream
// (the CE's vector format), prefetch arm/fire, scalar accesses, and the
// global synchronization instructions.
//
// Timing and function are split: an operation's address stream determines
// its simulated cost, while its optional Do callback performs the real
// arithmetic on ordinary Go slices when the operation completes. Kernels
// therefore produce numerically verifiable results while the machine
// model produces cycle counts.
package isa

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/sim"
)

// Space selects half of Cedar's physical address space: cluster memory
// (accessed through the shared cluster cache) or the globally shared
// memory (accessed through the networks, optionally via the prefetch
// unit).
type Space uint8

// The two memory spaces.
const (
	Cluster Space = iota
	Global
)

// String names the space.
func (s Space) String() string {
	if s == Cluster {
		return "cluster"
	}
	return "global"
}

// Addr is a word address within one of the two spaces.
type Addr struct {
	Space Space
	Word  uint64
}

// Kind discriminates micro-operations.
type Kind uint8

// Micro-operation kinds.
const (
	// Compute occupies the CE for a fixed number of cycles (scalar code,
	// register-register vector arithmetic, loop bookkeeping).
	Compute Kind = iota
	// Vector is a register-memory vector operation: one memory operand
	// stream of N words at the given stride, consumed or produced at up
	// to one word per cycle after vector startup, with Flops chained
	// floating-point operations per element.
	Vector
	// Prefetch arms the CE's prefetch unit with a vector descriptor and
	// fires it; the prefetch then proceeds autonomously, overlapping
	// with subsequent operations.
	Prefetch
	// Scalar is a single-word load or store.
	Scalar
	// Sync is an indivisible global-memory synchronization instruction
	// (Test-And-Set / Test-And-Operate), completing with a result.
	Sync
	// IO is a blocking Fortran I/O statement: a transfer of IOWords
	// 64-bit words served by the cluster's interactive processor.
	// Formatted transfers pay the per-word conversion cost on top of
	// the raw disk rate (the paper's formatted/unformatted distinction
	// that dominates BDNA). The issuing program parks on the
	// outstanding transfer and is redispatched at completion.
	IO
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Vector:
		return "vector"
	case Prefetch:
		return "prefetch"
	case Scalar:
		return "scalar"
	case Sync:
		return "sync"
	case IO:
		return "io"
	}
	return "unknown"
}

// Op is one micro-operation. Construct with the New* helpers, which
// validate the fields a CE requires.
type Op struct {
	Kind Kind

	// Compute.
	Cycles sim.Cycle

	// Vector.
	N           int
	Stride      int
	Base        Addr
	Write       bool
	Flops       int // chained flops per element
	UsePrefetch bool

	// Prefetch.
	PFBase   Addr
	PFStride int
	PFN      int
	PFMask   []bool // nil = fetch every element

	// Scalar.
	ScalarAddr  Addr
	ScalarWrite bool

	// Sync.
	SyncSpec network.SyncSpec
	SyncAddr uint64

	// IO.
	IOWords     int64
	IOFormatted bool
	// IOLabel names the request in diagnostics (an ErrDeadline hit
	// while the transfer is outstanding reports it); empty means the
	// issuing CE names the request.
	IOLabel string

	// ExtraCost, if non-nil on a Compute operation, is evaluated once at
	// the cycle the op starts and returns additional cycles to charge on
	// top of Cycles. The concurrency bus uses it to stretch claim and
	// concurrent-start operations caught inside a fault stall window:
	// the op's start cycle is a CE tick slot, identical in every engine
	// mode, so the charged cost — and any counters the hook updates —
	// stay mode-bit-identical. The hook must return a non-negative,
	// deterministic function of simulated state at the start cycle.
	ExtraCost func(now sim.Cycle) sim.Cycle

	// Do, if non-nil, runs when the operation completes: the functional
	// payload (actual arithmetic on backing slices).
	Do func()

	// OnDone, if non-nil, receives a Sync operation's result: the prior
	// memory value and whether the relational test succeeded. For other
	// kinds it is called with (0, true).
	OnDone func(v int64, ok bool)
}

// NewCompute returns a fixed-cost operation.
func NewCompute(cycles sim.Cycle) *Op {
	if cycles < 0 {
		panic("isa: negative compute cycles")
	}
	return &Op{Kind: Compute, Cycles: cycles}
}

// NewIORequest returns a blocking I/O operation moving words 64-bit
// words through the cluster's interactive processor; formatted selects
// the Fortran formatted path (per-word conversion on top of the raw
// transfer rate).
func NewIORequest(words int64, formatted bool) *Op {
	if words < 0 {
		panic(fmt.Sprintf("isa: negative I/O size %d", words))
	}
	return &Op{Kind: IO, IOWords: words, IOFormatted: formatted}
}

// NewVectorLoad returns a vector operation streaming n words from base at
// stride, with flops chained operations per element. usePrefetch selects
// consumption from the prefetch buffer (valid only for Global space).
func NewVectorLoad(base Addr, n, stride, flops int, usePrefetch bool) *Op {
	if n < 0 {
		panic("isa: negative vector length")
	}
	if stride == 0 {
		stride = 1
	}
	if usePrefetch && base.Space != Global {
		panic("isa: prefetch consumption from cluster space")
	}
	return &Op{Kind: Vector, N: n, Stride: stride, Base: base, Flops: flops, UsePrefetch: usePrefetch}
}

// NewVectorStore returns a vector operation writing n words to base at
// stride, with flops chained operations per element. Stores do not stall
// the CE beyond issue bandwidth.
func NewVectorStore(base Addr, n, stride, flops int) *Op {
	if n < 0 {
		panic("isa: negative vector length")
	}
	if stride == 0 {
		stride = 1
	}
	return &Op{Kind: Vector, N: n, Stride: stride, Base: base, Write: true, Flops: flops}
}

// NewPrefetch returns an operation arming and firing the prefetch unit
// for n words from base at stride. Base must be in Global space.
func NewPrefetch(base Addr, n, stride int) *Op {
	return NewPrefetchMasked(base, n, stride, nil)
}

// NewPrefetchMasked is NewPrefetch with a per-element mask, the third
// component of the hardware's arm descriptor: mask[i] false suppresses
// element i's fetch (its buffer slot reads as zero).
func NewPrefetchMasked(base Addr, n, stride int, mask []bool) *Op {
	if base.Space != Global {
		panic("isa: prefetch from cluster space")
	}
	if n < 0 || n > 512 {
		panic(fmt.Sprintf("isa: prefetch length %d outside 0..512", n))
	}
	if mask != nil && len(mask) != n {
		panic(fmt.Sprintf("isa: prefetch mask of %d for length %d", len(mask), n))
	}
	if stride == 0 {
		stride = 1
	}
	return &Op{Kind: Prefetch, PFBase: base, PFStride: stride, PFN: n, PFMask: mask}
}

// NewScalarLoad returns a single-word load.
func NewScalarLoad(addr Addr) *Op {
	return &Op{Kind: Scalar, ScalarAddr: addr}
}

// NewScalarStore returns a single-word store.
func NewScalarStore(addr Addr) *Op {
	return &Op{Kind: Scalar, ScalarAddr: addr, ScalarWrite: true}
}

// NewSync returns a global synchronization operation on word addr.
func NewSync(addr uint64, spec network.SyncSpec) *Op {
	return &Op{Kind: Sync, SyncAddr: addr, SyncSpec: spec}
}

// Program supplies a CE's micro-operation stream. Next is called when the
// CE has completed the previous operation; returning nil ends the
// program (the CE idles until it is assigned new work).
type Program interface {
	Next() *Op
}

// Seq is a fixed operation sequence.
type Seq struct {
	ops []*Op
	i   int
}

// NewSeq returns a program that runs the given operations in order.
func NewSeq(ops ...*Op) *Seq { return &Seq{ops: ops} }

// Add appends operations (valid before or during execution).
func (s *Seq) Add(ops ...*Op) { s.ops = append(s.ops, ops...) }

// Next implements Program.
func (s *Seq) Next() *Op {
	if s.i >= len(s.ops) {
		return nil
	}
	op := s.ops[s.i]
	s.i++
	return op
}

// Len reports the number of operations remaining plus executed.
func (s *Seq) Len() int { return len(s.ops) }

// OnEnd returns a program that runs p to completion and then invokes f
// exactly once — at the simulated time the last operation finished. It is
// the building block for joins: wrap every participant of a parallel
// loop, count completions, and dispatch the continuation from the last
// one.
func OnEnd(p Program, f func()) Program {
	return &onEnd{p: p, f: f}
}

type onEnd struct {
	p     Program
	f     func()
	fired bool
}

func (o *onEnd) Next() *Op {
	op := o.p.Next()
	if op == nil && !o.fired {
		o.fired = true
		if o.f != nil {
			o.f()
		}
	}
	return op
}

// Gen is a dynamic program: when its queue runs dry, fill is invoked to
// emit more operations; fill returning false ends the program. This is
// how self-scheduling loops are expressed — the decision of what to run
// next can depend on results delivered by OnDone callbacks of earlier
// operations (for example, the iteration index returned by a
// fetch-and-add claim).
type Gen struct {
	queue []*Op
	fill  func(g *Gen) bool
	done  bool
}

// NewGen returns a generator program driven by fill.
func NewGen(fill func(g *Gen) bool) *Gen {
	if fill == nil {
		panic("isa: NewGen with nil fill")
	}
	return &Gen{fill: fill}
}

// Emit appends operations to the pending queue; normally called from the
// fill function or from OnDone callbacks.
func (g *Gen) Emit(ops ...*Op) { g.queue = append(g.queue, ops...) }

// EmitFront inserts operations at the head of the pending queue, ahead of
// anything already emitted. Completion callbacks use it to splice a
// continuation (for example a barrier's spin loop) before operations that
// must run after it. The queue keeps its backing array: the pending
// operations shift back in place, so a queue with room allocates nothing.
func (g *Gen) EmitFront(ops ...*Op) {
	n := len(g.queue)
	g.queue = append(g.queue, ops...)
	copy(g.queue[len(ops):], g.queue[:n])
	copy(g.queue, ops)
}

// Next implements Program.
func (g *Gen) Next() *Op {
	for len(g.queue) == 0 {
		if g.done {
			return nil
		}
		if !g.fill(g) {
			g.done = true
			if len(g.queue) == 0 {
				return nil
			}
		}
	}
	op := g.queue[0]
	copy(g.queue, g.queue[1:])
	g.queue = g.queue[:len(g.queue)-1]
	return op
}
