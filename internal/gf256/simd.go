package gf256

// Kernel tier selection. The slice kernels (AddMul, AddMul2, AddMul4,
// Xor) dispatch between three tiers:
//
//   - the SIMD tier: architecture-specific assembly using the low/high
//     nibble shuffle-table technique (Plank et al., "Screaming Fast
//     Galois Field Arithmetic Using Intel SIMD Instructions", FAST 2013)
//     — AVX2 on amd64 (selected at init via CPUID), NEON on arm64;
//   - the table tier: the tuned pure-Go full-table kernels, used for
//     short slices, CPUs without the required vector extensions, other
//     architectures, and `-tags purego` builds;
//   - the scalar tier: the portable log/exp reference loops (*Scalar),
//     the ground truth the other tiers are tested and fuzzed against.
//
// Building with `-tags purego` removes the SIMD tier entirely, which is
// how CI keeps the fallback path green and how a suspect vector kernel
// can be ruled out in the field.

// simdMinLen is the slice length below which dispatch skips the SIMD
// tier: the vector kernels work in 32-byte steps, so this is the least
// they can take. It is also where they start to pay — at exactly 32
// bytes the AVX2 AddMul runs in ~9 ns against the table loop's ~15 ns,
// and AddMul4 in ~14 ns against ~52 ns — so no higher threshold is
// needed (short rows matter: the decoder's e×e inversions are made of
// them).
const simdMinLen = 32

// Tier names the kernel tier the multiply-accumulate dispatch selects
// for long slices on this process: "avx2", "neon", or "table".
func Tier() string {
	if simdEnabled {
		return simdTierName
	}
	return "table"
}
