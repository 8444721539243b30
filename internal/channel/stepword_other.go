//go:build !amd64 || purego

package channel

// No word kernel: cpuid.AVX512DQ is a constant false in these builds.
func splitmixWord(s, pT, qT, rmin uint64, offs *[64]uint64) (enter, stay, redraw uint64) {
	panic("channel: word kernel called in a build without one")
}
