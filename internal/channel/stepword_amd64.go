//go:build amd64 && !purego

package channel

// splitmixWord is the AVX512F+DQ word kernel; callers check
// cpuid.AVX512DQ first.
//
//go:noescape
func splitmixWord(s, pT, qT, rmin uint64, offs *[64]uint64) (enter, stay, redraw uint64)
