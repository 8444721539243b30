//go:build !race

package ldpc

const raceEnabled = false
