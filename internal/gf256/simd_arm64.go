//go:build arm64 && !purego

package gf256

// NEON nibble shuffle-table kernels: the arm64 realisation of the same
// low/high split-table factorisation the AVX2 tier uses, with TBL as the
// 16-entry lookup. NEON (ASIMD) is architecturally guaranteed on arm64,
// so there is no runtime feature probe.

var simdEnabled = true

const simdTierName = "neon"

//go:noescape
func addMulNEON(dst, src *byte, n int, lo, hi *[16]byte)

//go:noescape
func addMul4NEON(d0, d1, d2, d3, src *byte, n int, tab *[8][16]byte)

//go:noescape
func xorNEON(dst, src *byte, n int)

// addMulSIMD runs the vector kernel over the 32-byte-aligned body and
// the table kernel over the tail. Callers guarantee len(src) >= 32 and
// c > 1.
func addMulSIMD(dst, src []byte, c byte) {
	n := len(src) &^ 31
	addMulNEON(&dst[0], &src[0], n, &mulLow[c], &mulHigh[c])
	if n < len(src) {
		addMulUnrolled(dst[n:], src[n:], c)
	}
}

// addMul4SIMD gathers the eight nibble tables into one block (eight
// register-resident TBL tables for the whole pass). Callers guarantee
// len(src) >= 32 and all coefficients > 1.
func addMul4SIMD(d0, d1, d2, d3, src []byte, c0, c1, c2, c3 byte) {
	var tab [8][16]byte
	tab[0], tab[1] = mulLow[c0], mulHigh[c0]
	tab[2], tab[3] = mulLow[c1], mulHigh[c1]
	tab[4], tab[5] = mulLow[c2], mulHigh[c2]
	tab[6], tab[7] = mulLow[c3], mulHigh[c3]
	n := len(src) &^ 31
	addMul4NEON(&d0[0], &d1[0], &d2[0], &d3[0], &src[0], n, &tab)
	if n < len(src) {
		addMul4Unrolled(d0[n:], d1[n:], d2[n:], d3[n:], src[n:], c0, c1, c2, c3)
	}
}

// xorSIMD XORs the 32-byte-aligned body with vector loads and hands the
// tail to the word-wide kernel. Callers guarantee len(dst) >= 64.
func xorSIMD(dst, src []byte) {
	n := len(dst) &^ 31
	xorNEON(&dst[0], &src[0], n)
	if n < len(dst) {
		xorWords(dst[n:], src[n:])
	}
}

// xorSumSIMD has no kernel of its own on arm64: it is a copy and one
// xorNEON pass per further source.
func xorSumSIMD(dst []byte, srcs [][]byte) { xorSumLoop(dst, srcs) }
