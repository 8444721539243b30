//go:build amd64 && !purego

package cpuid

// AVX2 gates the YMM kernels: AVX2, with the OS saving YMM state. GFNI
// gates EVEX-encoded GFNI kernels: GFNI, AVX512F and AVX2, with the OS
// saving ZMM and opmask state. AVX512DQ gates ZMM kernels that need
// AVX512F and AVX512DQ (VPMULLQ), with that same OS state.
var AVX2, GFNI, AVX512DQ = probe()

// probe reads the CPU flags (CPUID) and the vector state the OS saves
// (XGETBV).
func probe() (avx2, gfni, avx512dq bool)
