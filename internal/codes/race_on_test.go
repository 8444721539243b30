//go:build race

package codes

// raceEnabled thins TestSenderAndWireCodecsAgree's grid under the race
// detector: one goroutine, ten times the cost.
const raceEnabled = true
