//go:build race

package core

// raceEnabled reports a -race build, whose instrumentation changes what
// allocations weigh.
const raceEnabled = true
