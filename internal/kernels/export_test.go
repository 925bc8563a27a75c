package kernels

// Test-only exports for the examples in package kernels_test, which call
// the rank-64 and CG entry points directly. Code outside the tests reaches
// a kernel only by name, through Run.
var (
	RunRank64       = runRank64
	NewRank64Input  = newRank64Input
	ReferenceRank64 = referenceRank64
	RunCG           = runCG
	NewCGProblem    = newCGProblem
)
