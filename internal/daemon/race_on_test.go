//go:build race

package daemon

// raceEnabled skips the allocation checks under the race detector,
// whose instrumentation allocates on its own.
const raceEnabled = true
