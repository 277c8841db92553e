//go:build race

package harness

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
