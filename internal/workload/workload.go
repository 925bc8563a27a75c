// Package workload defines the parameters every kernel on the simulated
// Cedar shares: one serializable Params set plus runtime Attachments. It
// replaces the divergent positional parameters the kernel entry points
// had grown (`usePrefetch, probe bool` here, `mode Mode` there); the
// kernels themselves are reached by name through kernels.Run.
//
// The Params/Attachments split is deliberate API design: Params is a
// comparable value type holding exactly the inputs that determine a
// run's outcome (so a job cache may key on it), while Attachments
// carries the runtime-only observers — function and interface values
// that must never leak into a cache key. Params are not validated here:
// job.Spec is the one validator of a job's parameters, and kernels see
// only what a normalized Spec converts to.
package workload

import "repro/internal/cedarfort"

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
