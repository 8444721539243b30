package gf256

// Kernel tier selection. The slice kernels dispatch, once at init, to the
// best of these tiers (Tier names the one in use):
//
//   - gfni: amd64 with GFNI and AVX512F (CPUID, plus XGETBV for ZMM
//     state). AddMulRows runs as one assembly pass per four rows that
//     multiplies with VGF2P8AFFINEQB and holds the rows' 128-byte strips
//     in registers across all sources; everything else uses the avx2
//     kernels.
//   - avx2 (amd64) / neon (arm64): assembly using the low/high nibble
//     shuffle-table technique (Plank et al., "Screaming Fast Galois Field
//     Arithmetic Using Intel SIMD Instructions", FAST 2013), one call per
//     source symbol.
//   - portable: the tuned pure-Go full-table kernels — short slices,
//     sub-vector tails, CPUs without the extensions, other architectures,
//     and `-tags purego` builds.
//
// The *Scalar log/exp loops are not a dispatch tier: they are the oracle
// the tiers are tested and fuzzed against.
//
// Building with `-tags purego` removes the assembly entirely, which is
// how CI keeps the portable path green and how a suspect vector kernel
// can be ruled out in the field.

// simdMinLen is the slice length below which dispatch skips the SIMD
// tier: the vector kernels work in 32-byte steps, so this is the least
// they can take. It is also where they start to pay — at exactly 32
// bytes the AVX2 AddMul runs in ~9 ns against the table loop's ~15 ns,
// and AddMul4 in ~14 ns against ~52 ns — so no higher threshold is
// needed (short rows matter: the decoder's e×e inversions are made of
// them).
const simdMinLen = 32

const (
	// gfniStrip is the width of the fused kernel's step: 128 bytes of
	// each of four rows fill eight ZMM accumulators.
	gfniStrip = 128
	// gfniMaxCols bounds the per-call pointer and matrix scratch (10 KiB
	// of stack). GF(2^8) Reed-Solomon never has more columns; a wider
	// product takes the ladder.
	gfniMaxCols = 256
)

// RowsStrip is the row-length granularity of AddMulRows' fused kernel:
// rows whose length is a multiple of it run there whole, with no tail
// left for the per-source ladder. matrix.Invert pads its rows to it.
const RowsStrip = gfniStrip

// Tier names the kernel tier the dispatch selected for this process:
// "gfni", "avx2", "neon" or "portable".
func Tier() string {
	switch {
	case gfniEnabled:
		return "gfni"
	case simdEnabled:
		return simdTierName
	}
	return "portable"
}
