//go:build !race

package symbol

const raceEnabled = false
