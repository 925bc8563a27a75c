// Package kernels implements the computational kernels the paper uses to
// characterize the Cedar memory system (Section 4.1):
//
//   - RK: a rank-64 update of an n x n matrix, in the three versions of
//     Table 1 (GM/no-pref, GM/pref, GM/cache);
//   - VL: a vector load stream;
//   - TM: a tridiagonal matrix-vector multiply;
//   - CG: a conjugate-gradient solver on a 5-diagonal system, also used
//     for the scalability study of Section 4.3;
//
// plus the two I/O-heavy Perfect codes, BDNA and MG3D. A kernel is
// reached only by its name, through Run; Names lists them.
//
// Every kernel computes real floating-point results (verifiable against a
// direct serial reference) while its address streams drive the simulated
// machine; the returned job.Result carries both the numerical check value
// and the performance metrics the paper reports.
package kernels

import (
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/perfmon"
	"repro/internal/sim"
)

// finish assembles a kernel's own fields of a job.Result from a completed
// run: the Table 2 prefetch metrics are present only when a probe
// measured at least one block.
func finish(name string, m *core.Machine, start, end sim.Cycle, check float64, probe *perfmon.PrefetchProbe) job.Result {
	flops := m.TotalFlops()
	r := job.Result{
		Workload: name,
		CEs:      m.NumCEs(),
		Cycles:   int64(end - start),
		Flops:    flops,
		MFLOPS:   core.MFLOPS(flops, end-start),
		Check:    check,
	}
	if probe != nil && probe.Blocks() > 0 {
		lat, ia := probe.MeanLatency(), probe.MeanInterarrival()
		r.LatencyCycles, r.InterarrivalCycles = &lat, &ia
	}
	return r
}

// StripLen is the CE vector register length: kernels are strip-mined to
// 32-word strips, as the Alliant vector unit's eight 32-word registers
// dictate.
const StripLen = 32
