// Package xylem models the services of the Xylem operating system that
// the paper's measurements depend on. Xylem links the four separate
// operating systems in the Alliant clusters into the Cedar OS and exports
// virtual memory, scheduling, and file system services.
//
// Three of them run inside the simulated machine:
//
//   - The I/O park table (IOWait): a program issuing a blocking Fortran
//     I/O statement parks while its transfer is outstanding and resumes
//     at the completion cycle.
//
//   - File-system costs (IOCost), whose structure (formatted conversion
//     versus raw transfer) explains the BDNA hand optimization: replacing
//     formatted with unformatted I/O cut that code's time from 111 s to
//     70 s.
//
//   - Gang rescheduling (Rescheduler): a cluster task occupies all CEs
//     of a cluster, so the program of a check-stopped CE is redispatched
//     onto an idle CE of the same cluster.
//
// Virtual memory is not simulated. The TRFD page-fault pathology of
// Section 4.2 (each additional cluster faulting on pages whose PTEs
// already exist) is an analytic term of the Perfect models, priced by
// perfect.Rates.TLBMissSeconds.
package xylem

import (
	"time"

	"repro/internal/sim"
)

// The file-system cost model: formatted I/O pays a per-word conversion
// cost on a CE in addition to the raw transfer. Costs are rounded up to
// whole cycles, as sim.FromDuration does.
const (
	// TransferPerWord is the raw I/O cost per 64-bit word: 0.6 µs, about
	// 12 MB/s through the IPs.
	TransferPerWord = sim.Cycle((600*time.Nanosecond + sim.CycleTime - 1) / sim.CycleTime)
	// FormatPerWord is the additional formatted-conversion cost per
	// word: 9 µs of text conversion on a 170 ns scalar CE.
	FormatPerWord = sim.Cycle((9*time.Microsecond + sim.CycleTime - 1) / sim.CycleTime)
)

// IOCost returns the cost of reading or writing n words: the raw
// transfer, plus the conversion when the I/O is formatted.
func IOCost(n int64, formatted bool) sim.Cycle {
	perWord := TransferPerWord
	if formatted {
		perWord += FormatPerWord
	}
	return sim.Cycle(n) * perWord
}
