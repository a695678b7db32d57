//go:build !race

package resilience

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under -race because instrumentation changes
// allocation behavior.
const raceEnabled = false
