//go:build !race

package codes

const raceEnabled = false
