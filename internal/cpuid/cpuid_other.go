//go:build !amd64 || purego

package cpuid

// No assembly tiers: other architectures, and `-tags purego` builds.
const AVX2, GFNI, AVX512DQ = false, false, false
