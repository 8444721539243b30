//go:build race

package symbol

// raceEnabled skips the alloc-ceiling tests under the race detector,
// whose instrumentation allocates on its own.
const raceEnabled = true
