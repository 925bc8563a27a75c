// Package repro is a Go reproduction of "The Cedar System and an Initial
// Performance Study" (Kuck et al., CSRD, University of Illinois): a
// cycle-approximate simulator of the Cedar cluster-based shared-memory
// multiprocessor, a CEDAR FORTRAN-style runtime, the paper's
// computational kernels and Perfect Benchmark workload models, the
// comparator machine models, and the Practical Parallelism methodology —
// regenerating every table and figure of the paper's evaluation.
//
// See README.md for a tour, DESIGN.md for the system inventory and the
// hardware-to-simulation substitutions, and EXPERIMENTS.md for
// paper-versus-measured results. cmd/tables prints each exhibit by its
// name in the internal/tables catalog:
//
//	go run ./cmd/tables table1     # one exhibit
//	go run ./cmd/tables            # the paper's evaluation at once
//	go run ./cmd/tables -h         # the catalog
package repro
