package job

import "fmt"

// Result is the serializable outcome of one simulation job — what
// cedard returns over the wire and what the cache stores. Everything in
// it is derived deterministically from the Spec, so a cached Result is
// indistinguishable from a fresh one.
type Result struct {
	// Workload is the kernel-and-variant name the run reported.
	Workload string `json:"workload"`
	// CEs is the processor count used.
	CEs int `json:"ces"`
	// Cycles is the elapsed simulated time in 170ns cycles.
	Cycles int64 `json:"cycles"`
	// Flops is the floating-point operation count performed by the CEs.
	Flops int64 `json:"flops"`
	// MFLOPS is the paper's rate metric.
	MFLOPS float64 `json:"mflops"`
	// Check is the kernel's numerical checksum for verification.
	Check float64 `json:"check"`
	// LatencyCycles and InterarrivalCycles are the Table 2 prefetch
	// metrics; absent when the run carried no probe (JSON has no NaN).
	LatencyCycles      *float64 `json:"latency_cycles,omitempty"`
	InterarrivalCycles *float64 `json:"interarrival_cycles,omitempty"`
	// Notes carries kernel-specific result lines (a CG residual, an I/O
	// volume) verbatim.
	Notes []string `json:"notes,omitempty"`
	// Tables carries the run's rendered report tables (utilization,
	// per-cluster I/O, the fault census) as text blocks.
	Tables []string `json:"tables,omitempty"`
	// RegistryFingerprint is the machine's architected-metric
	// fingerprint after the run — the determinism witness: identical
	// Specs produce identical fingerprints, on every engine path.
	RegistryFingerprint string `json:"registry_fingerprint"`
	// FaultCensus maps fault-kind mnemonics (plus "repairs" and
	// "no-target") to injection counts; absent on fault-free runs.
	FaultCensus map[string]int64 `json:"fault_census,omitempty"`
}

// String renders the paper's one-line result summary, the line cedarsim
// prints after a run.
func (r Result) String() string {
	s := fmt.Sprintf("%-14s P=%-3d %8d cycles  %7.1f MFLOPS", r.Workload, r.CEs, r.Cycles, r.MFLOPS)
	if r.LatencyCycles != nil && r.InterarrivalCycles != nil {
		s += fmt.Sprintf("  lat=%5.1f  ia=%4.2f", *r.LatencyCycles, *r.InterarrivalCycles)
	}
	return s
}
