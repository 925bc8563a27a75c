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
//   - File-system costs (FS), whose structure (formatted conversion
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

import "repro/internal/sim"

// FSConfig holds the file-system cost model: formatted I/O pays a
// per-word conversion cost on a CE in addition to the raw transfer.
type FSConfig struct {
	// TransferPerWord is the raw I/O cost per 64-bit word
	// (default ~0.6 µs/word ≈ 12 MB/s through the IPs).
	TransferPerWord sim.Cycle
	// FormatPerWord is the additional formatted-conversion cost per word
	// (default ~9 µs/word: text conversion on a 170 ns scalar CE).
	FormatPerWord sim.Cycle
}

// DefaultFSConfig returns the calibrated I/O costs.
func DefaultFSConfig() FSConfig {
	return FSConfig{
		TransferPerWord: sim.FromMicroseconds(0.6),
		FormatPerWord:   sim.FromMicroseconds(9),
	}
}

// FS is the file-system cost model.
type FS struct {
	cfg FSConfig
	// Counters.
	WordsFormatted   int64
	WordsUnformatted int64
}

// NewFS returns a file-system model.
func NewFS(cfg FSConfig) *FS { return &FS{cfg: cfg} }

// FormattedIO returns the cost of reading or writing n words with format
// conversion.
func (f *FS) FormattedIO(n int64) sim.Cycle {
	f.WordsFormatted += n
	return sim.Cycle(n) * (f.cfg.TransferPerWord + f.cfg.FormatPerWord)
}

// UnformattedIO returns the cost of raw binary transfer of n words.
func (f *FS) UnformattedIO(n int64) sim.Cycle {
	f.WordsUnformatted += n
	return sim.Cycle(n) * f.cfg.TransferPerWord
}
