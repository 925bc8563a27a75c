// Package workload defines the single entry point every kernel on the
// simulated Cedar shares: a Func runs against a core.Machine under one
// serializable Params set plus runtime Attachments, and reports one
// Result. The package replaces the divergent positional parameters the
// kernel entry points had grown (`usePrefetch, probe bool` here, `mode
// Mode` there) and carries the registry that lets drivers like
// cmd/cedarsim and cmd/cedard select workloads by name instead of
// hard-coded switches.
//
// The Params/Attachments split is deliberate API design: Params is a
// comparable value type holding exactly the inputs that determine a
// run's outcome (so a job cache may key on it), while Attachments
// carries the runtime-only observers — function and interface values
// that must never leak into a cache key. Params are not validated here:
// job.Spec is the one validator of a job's parameters, and kernels see
// only what a normalized Spec converts to.
package workload

import (
	"fmt"
	"math"

	"repro/internal/cedarfort"
	"repro/internal/core"
	"repro/internal/sim"
)

// Mode selects the memory-system strategy of a kernel, matching the
// three versions of the paper's Table 1.
type Mode int

// Kernel memory modes.
const (
	// GMNoPrefetch: all vector accesses go to global memory with no
	// prefetching — throughput is bounded by the two outstanding
	// requests per CE and the 13-cycle latency.
	GMNoPrefetch Mode = iota
	// GMPrefetch: identical access pattern, but every global vector
	// operand is prefetched.
	GMPrefetch
	// GMCache: submatrix blocks are transferred to a cached work array
	// in each cluster and all inner-loop vector accesses hit the cache.
	GMCache
)

// String names the mode as in Table 1.
func (m Mode) String() string {
	switch m {
	case GMNoPrefetch:
		return "GM/no-pref"
	case GMPrefetch:
		return "GM/pref"
	case GMCache:
		return "GM/cache"
	}
	return "unknown"
}

// Params is the serializable parameter set of a workload run. The zero
// value is a sensible default everywhere: no prefetch, no probe, Table
// 1's GM/no-pref mode, and kernel-chosen size and iteration count.
//
// Params is comparable by construction (the compile-time guard below
// enforces it), so no function or interface field can be added to it
// and silently escape a result-cache key: anything runtime-only belongs
// in Attachments.
type Params struct {
	// Mode selects the memory-system strategy for kernels with Table 1
	// variants (Rank64); others ignore it.
	Mode Mode
	// Prefetch drives global vector operands through the PFUs for
	// kernels with a prefetch toggle (VL, TM, CG, the I/O kernels).
	Prefetch bool
	// Probe attaches the Table 2 prefetch performance probe when the
	// run prefetches.
	Probe bool
	// Iterations overrides the kernel's iteration/step count; zero
	// selects the kernel default.
	Iterations int
	// Size overrides the kernel's problem size in elements (the meaning
	// — matrix order, vector length, words per I/O step — is the
	// kernel's); zero selects the kernel default.
	Size int
}

// Params must stay usable as a map key: a field that breaks
// comparability (func, slice, interface) is a field a cache cannot key
// on, and belongs in Attachments instead.
var _ = map[Params]struct{}{}

// Attachments carries the runtime-only observers of a workload run —
// the non-serializable values deliberately kept out of Params so they
// can never join a cache key. The zero value attaches nothing.
type Attachments struct {
	// Phases, when non-nil, observes workload phase boundaries (hand a
	// telemetry.Sampler here to mark phase intervals); kernels hand it to
	// their runtime.
	Phases cedarfort.PhaseObserver
}

// Result reports one kernel execution.
type Result struct {
	// Name identifies the kernel and variant.
	Name string
	// CEs is the processor count used.
	CEs int
	// Cycles is the elapsed simulated time.
	Cycles sim.Cycle
	// Flops is the floating-point operation count performed by the CEs.
	Flops int64
	// MFLOPS is the paper's rate metric.
	MFLOPS float64
	// Check is a kernel-specific numerical checksum for verification.
	Check float64
	// Latency and Interarrival are the Table 2 prefetch metrics in
	// cycles (NaN when the kernel was run without a probe or without
	// prefetching).
	Latency      float64
	Interarrival float64
	// Notes carries kernel-specific result lines (a CG residual, an I/O
	// volume) for drivers to print verbatim.
	Notes []string
}

func (r Result) String() string {
	s := fmt.Sprintf("%-14s P=%-3d %8d cycles  %7.1f MFLOPS", r.Name, r.CEs, r.Cycles, r.MFLOPS)
	if !math.IsNaN(r.Latency) {
		s += fmt.Sprintf("  lat=%5.1f  ia=%4.2f", r.Latency, r.Interarrival)
	}
	return s
}

// Func is a runnable kernel: it drives a machine under the shared
// Params, with runtime observers passed separately.
type Func func(m *core.Machine, p Params, att Attachments) (Result, error)
