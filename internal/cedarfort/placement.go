package cedarfort

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/sim"
)

// Data placement (Section 3.1 of the paper): a variable can be placed in
// either cluster or shared global memory; placement is in cluster memory
// by default, a GLOBAL attribute selects shared memory, and a variable
// declared inside a parallel loop gets a private per-processor copy in
// cluster memory. These helpers provide those declarations against the
// machine's address spaces; CEDAR FORTRAN's "data can be moved between
// cluster and global memory only via explicit moves under software
// control" is MoveOps.

// Global declares a shared array of n words in global memory and returns
// its base address (the GLOBAL attribute).
func (r *Runtime) Global(n uint64) isa.Addr {
	return isa.Addr{Space: isa.Global, Word: r.M.AllocGlobal(n)}
}

// ClusterLocal declares an array of n words in one cluster's memory (the
// default placement for a cluster task's data).
func (r *Runtime) ClusterLocal(cluster int, n uint64) isa.Addr {
	return isa.Addr{Space: isa.Cluster, Word: r.M.Clusters[cluster].Alloc(n)}
}

// LoopLocal declares a loop-local variable from inside a loop body: a
// private copy for the executing processor, placed in its cluster
// memory. In all Perfect programs the study found loop-local placement
// an important factor in reducing data access latencies.
func (c *Ctx) LoopLocal(n uint64) isa.Addr {
	if c.Cluster == nil {
		panic("cedarfort: LoopLocal outside a cluster context")
	}
	return isa.Addr{Space: isa.Cluster, Word: c.Cluster.Alloc(n)}
}

// MoveOps returns the operation sequence for an explicit software move
// of n words between cluster and global memory (either direction), the
// only way data moves between the two spaces. Global reads are
// prefetched in 512-word blocks; the Do callback, if non-nil, runs when
// the move completes (attach the functional copy there).
func MoveOps(dst, src isa.Addr, n int, do func()) []*isa.Op {
	if dst.Space == src.Space {
		panic(fmt.Sprintf("cedarfort: move within %v space", dst.Space))
	}
	var ops []*isa.Op
	for off := 0; off < n; off += 512 {
		chunk := n - off
		if chunk > 512 {
			chunk = 512
		}
		s := isa.Addr{Space: src.Space, Word: src.Word + uint64(off)}
		d := isa.Addr{Space: dst.Space, Word: dst.Word + uint64(off)}
		if src.Space == isa.Global {
			ops = append(ops,
				isa.NewPrefetch(s, chunk, 1),
				isa.NewVectorLoad(s, chunk, 1, 0, true),
			)
		} else {
			ops = append(ops, isa.NewVectorLoad(s, chunk, 1, 0, false))
		}
		ops = append(ops, isa.NewVectorStore(d, chunk, 1, 0))
	}
	if do != nil && len(ops) > 0 {
		ops[len(ops)-1].Do = do
	}
	return ops
}

// MoveSeconds estimates the duration of a move of n words at the
// prefetched global streaming rate — a planning helper for placement
// decisions (the analytic counterpart of MoveOps).
func (r *Runtime) MoveSeconds(n int) float64 {
	// ~1.1 cycles per word plus per-block startup.
	cycles := sim.Cycle(float64(n)*1.1) + sim.Cycle((n/512+1)*20)
	return cycles.Seconds()
}

// IO emits a blocking Fortran I/O statement: a 2-cycle syscall issue
// followed by an isa.IO operation of n words through the executing
// cluster's interactive processor. The issuing program parks on the
// outstanding transfer — the CE reports no next event and is woken by
// the completion — instead of spinning, so parked CEs cost the
// quiescence-aware engine paths nothing.
func (c *Ctx) IO(words int64, formatted bool) {
	c.IONamed(words, formatted, "")
}

// IONamed is IO with a diagnostic label: a run that dies on its deadline
// with the transfer still outstanding names the label in the
// ErrDeadline report. An empty label falls back to the issuing CE's
// name.
func (c *Ctx) IONamed(words int64, formatted bool, label string) {
	op := isa.NewIORequest(words, formatted)
	op.IOLabel = label
	c.Emit(isa.NewCompute(2), op) // syscall issue, then park on the transfer
}
