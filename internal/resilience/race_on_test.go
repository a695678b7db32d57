//go:build race

package resilience

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
