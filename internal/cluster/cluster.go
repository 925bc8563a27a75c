// Package cluster assembles one Alliant FX/8 cluster: eight computational
// elements sharing an interleaved cache in front of cluster memory, tied
// together by the concurrency control bus.
//
// The concurrency bus supports Cedar's fast intra-cluster parallel-loop
// control: a single "concurrent start" instruction spreads the iterations
// of a parallel loop from one CE to all CEs in the cluster by
// broadcasting the program counter and setting up private stacks — the
// whole cluster is gang-scheduled, and the CEs then self-schedule
// iterations among themselves over the bus. Starting a loop this way
// costs a few microseconds, versus roughly 90 µs for a loop spread over
// the whole machine through global memory (the CDOALL/XDOALL asymmetry of
// Section 3.2 of the paper).
package cluster

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/ce"
	"repro/internal/isa"
	"repro/internal/sim"
)

// The as-built concurrency-bus costs and cluster-memory size.
const (
	// SpreadCycles is the concurrent-start cost: the time from the
	// initiating CE executing the start to all cluster CEs running the
	// loop, the paper's "few microseconds" (3 µs, rounded up to whole
	// cycles as sim.FromDuration does).
	SpreadCycles = sim.Cycle((3*time.Microsecond + sim.CycleTime - 1) / sim.CycleTime)
	// ClaimCycles is the per-iteration self-scheduling cost over the
	// concurrency bus.
	ClaimCycles sim.Cycle = 2
	// MemWords is the cluster-memory address-space size in words used by
	// the bump allocator (32 MB).
	MemWords uint64 = 4 << 20
)

// Config holds the cluster-level parameters.
type Config struct {
	// CEs is the processor count per cluster (8 in Cedar).
	CEs int
}

// DefaultConfig returns the as-built cluster parameters.
func DefaultConfig() Config { return Config{CEs: 8} }

// Cluster is one Alliant FX/8.
type Cluster struct {
	cfg Config
	// ID is the cluster index within the machine.
	ID    int
	Cache *cache.Cache
	CEs   []*ce.CE
	// IPs is the cluster's interactive-processor I/O path (set by the
	// machine assembly; may be nil in bare test rigs).
	IPs *IP

	allocNext uint64

	// busStallUntil is the concurrency bus's fault stall window: claim
	// and concurrent-start operations starting before it pay the
	// remaining window on top of their normal cost (injected via
	// FaultBusStall). Service is deferred, never lost — an op caught in
	// the window simply takes longer, so no recovery protocol is needed.
	busStallUntil sim.Cycle

	// Bus fault counters.
	BusFaults      int64 // injected bus stall windows
	BusStalledOps  int64 // bus operations stretched by a window
	BusStallCycles int64 // total extra cycles charged to stretched ops
}

// New assembles a cluster around pre-built CEs and their shared cache.
func New(cfg Config, id int, ch *cache.Cache, ces []*ce.CE) *Cluster {
	if len(ces) != cfg.CEs {
		panic(fmt.Sprintf("cluster %d: %d CEs for a %d-CE configuration", id, len(ces), cfg.CEs))
	}
	return &Cluster{cfg: cfg, ID: id, Cache: ch, CEs: ces}
}

// Config returns the cluster's configuration.
func (cl *Cluster) Config() Config { return cl.cfg }

// Alloc reserves n words of cluster-memory address space and returns the
// base word address. Cluster memory is private to the cluster: addresses
// are meaningful only to this cluster's cache.
func (cl *Cluster) Alloc(n uint64) uint64 {
	if cl.allocNext+n > MemWords {
		panic(fmt.Sprintf("cluster %d: out of cluster memory (%d of %d words)", cl.ID, cl.allocNext, MemWords))
	}
	base := cl.allocNext
	cl.allocNext += n
	return base
}

// AllocReset releases all cluster-memory allocations (between workloads).
func (cl *Cluster) AllocReset() { cl.allocNext = 0 }

// Idle reports whether every CE in the cluster is idle.
func (cl *Cluster) Idle() bool {
	for _, c := range cl.CEs {
		if !c.Idle() {
			return false
		}
	}
	return true
}

// FaultBusStall stalls the concurrency bus for window cycles starting
// at now: claim and concurrent-start operations that begin inside the
// window are stretched by its remainder (the injected analogue of bus
// arbitration being monopolized by diagnostics traffic). Overlapping
// injections extend the window, never shrink it.
func (cl *Cluster) FaultBusStall(now sim.Cycle, window sim.Cycle) {
	if until := now + window; until > cl.busStallUntil {
		cl.busStallUntil = until
	}
	cl.BusFaults++
}

// busExtraCost is the isa.Op.ExtraCost hook attached to bus operations:
// evaluated once at the op's start cycle, it charges the remainder of
// any active stall window. Start cycles are CE tick slots, identical in
// both engine modes.
func (cl *Cluster) busExtraCost(now sim.Cycle) sim.Cycle {
	if now >= cl.busStallUntil {
		return 0
	}
	extra := cl.busStallUntil - now
	cl.BusStalledOps++
	cl.BusStallCycles += int64(extra)
	return extra
}

// SpreadOp returns the micro-operation an initiating CE executes to
// perform a concurrent start: it occupies the initiator for the bus
// spread cost and then assigns each cluster CE its program. progs[i] may
// be nil to leave CE i idle (the initiator too, if its slot is nil). The
// broadcast program counter ends every CE's current instruction stream —
// including the initiator's, so SpreadOp is normally the last operation
// of the stream that executes it; any unexecuted remainder is discarded.
func (cl *Cluster) SpreadOp(progs []isa.Program) *isa.Op {
	if len(progs) != len(cl.CEs) {
		panic(fmt.Sprintf("cluster %d: %d programs for %d CEs", cl.ID, len(progs), len(cl.CEs)))
	}
	op := isa.NewCompute(SpreadCycles)
	op.ExtraCost = cl.busExtraCost
	op.Do = func() {
		for i, p := range progs {
			if p == nil {
				continue
			}
			cl.CEs[i].ForceProgram(p)
		}
	}
	return op
}

// SelfSchedule builds the per-CE programs of a bus-self-scheduled
// parallel loop over iterations [0, n): each CE repeatedly claims the
// next iteration over the concurrency bus (ClaimCycles) and runs the
// operations body(iter) emits. The returned slice is suitable for
// SpreadOp. The claim counter is bus state, not memory: claims are
// instantaneous at the simulation level and serialized by the
// deterministic engine.
func (cl *Cluster) SelfSchedule(n int, body func(iter int, g *isa.Gen)) []isa.Program {
	next := 0
	progs := make([]isa.Program, len(cl.CEs))
	for i := range progs {
		progs[i] = isa.NewGen(func(g *isa.Gen) bool {
			if next >= n {
				return false
			}
			iter := next
			next++
			claim := isa.NewCompute(ClaimCycles)
			claim.ExtraCost = cl.busExtraCost
			g.Emit(claim)
			body(iter, g)
			return true
		})
	}
	return progs
}

// StaticSchedule builds per-CE programs for a statically blocked parallel
// loop over [0, n): CE i runs iterations i, i+P, i+2P, ... with no
// per-iteration claim cost (the concurrency bus computes the next
// iteration in the fork hardware).
func (cl *Cluster) StaticSchedule(n int, body func(iter int, g *isa.Gen)) []isa.Program {
	progs := make([]isa.Program, len(cl.CEs))
	p := len(cl.CEs)
	for i := range progs {
		start := i
		iter := start
		progs[i] = isa.NewGen(func(g *isa.Gen) bool {
			if iter >= n {
				return false
			}
			body(iter, g)
			iter += p
			return true
		})
	}
	return progs
}
