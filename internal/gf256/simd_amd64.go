//go:build amd64 && !purego

package gf256

import "fecperf/internal/cpuid"

// AVX2 nibble shuffle-table kernels. Each coefficient's 256-entry product
// row factors into two 16-entry tables (mulLow/mulHigh, built at init):
// c*x = lo[x&0x0f] ^ hi[x>>4]. VPSHUFB performs 32 of those 16-entry
// lookups per instruction, so one loop iteration multiplies 32 source
// bytes against a coefficient with two shuffles and three XORs — the
// technique of Plank et al. (FAST 2013) used by klauspost/reedsolomon.
// The GFNI kernel under AddMulRows is at the end of the file.

// The nibble-shuffle tier needs AVX2, the fused AddMulRows kernel GFNI.
var simdEnabled, gfniEnabled = cpuid.AVX2, cpuid.GFNI

const simdTierName = "avx2"

//go:noescape
func addMulAVX2(dst, src *byte, n int, lo, hi *[16]byte)

//go:noescape
func addMul4AVX2(d0, d1, d2, d3, src *byte, n int, tab *[8][16]byte)

//go:noescape
func xorAVX2(dst, src *byte, n int)

// addMulSIMD runs the vector kernel over the 32-byte-aligned body and
// the table kernel over the tail. Callers guarantee len(src) >= 32 and
// c > 1.
func addMulSIMD(dst, src []byte, c byte) {
	n := len(src) &^ 31
	addMulAVX2(&dst[0], &src[0], n, &mulLow[c], &mulHigh[c])
	if n < len(src) {
		addMulUnrolled(dst[n:], src[n:], c)
	}
}

// addMul4SIMD is the four-destination-row vector kernel: the eight
// nibble tables (lo/hi per coefficient) are gathered into one block so
// the assembly loads them with eight broadcasts and keeps all of them
// in registers for the whole pass. Callers guarantee len(src) >= 32 and
// all coefficients > 1.
func addMul4SIMD(d0, d1, d2, d3, src []byte, c0, c1, c2, c3 byte) {
	var tab [8][16]byte
	tab[0], tab[1] = mulLow[c0], mulHigh[c0]
	tab[2], tab[3] = mulLow[c1], mulHigh[c1]
	tab[4], tab[5] = mulLow[c2], mulHigh[c2]
	tab[6], tab[7] = mulLow[c3], mulHigh[c3]
	n := len(src) &^ 31
	addMul4AVX2(&d0[0], &d1[0], &d2[0], &d3[0], &src[0], n, &tab)
	if n < len(src) {
		addMul4Unrolled(d0[n:], d1[n:], d2[n:], d3[n:], src[n:], c0, c1, c2, c3)
	}
}

// xorSIMD XORs the 32-byte-aligned body with YMM loads and hands the
// tail to the word-wide kernel. Callers guarantee len(dst) >= 64.
func xorSIMD(dst, src []byte) {
	n := len(dst) &^ 31
	xorAVX2(&dst[0], &src[0], n)
	if n < len(dst) {
		xorWords(dst[n:], src[n:])
	}
}

// gfniMat[c] is multiplication by c as the 8×8 bit matrix VGF2P8AFFINEQB
// applies to every byte: output bit i is the parity of matrix byte 7-i
// ANDed with the input byte, so bit k of that byte says whether c·x^k has
// bit i set. Zero and one come out as the zero and identity matrices, so
// the kernel has no special coefficients.
var gfniMat [Size]uint64

func init() {
	for c := range gfniMat {
		v := c // c·x^k
		for k := 0; k < 8; k++ {
			for i := 0; i < 8; i++ {
				if v>>i&1 != 0 {
					gfniMat[c] |= 1 << (8*(7-i) + k)
				}
			}
			if v <<= 1; v&0x100 != 0 {
				v ^= Poly
			}
		}
	}
}

//go:noescape
func eliminateGFNI(ws *byte, stride, rows, col int, mats *[Size]uint64)

// eliminateFused is EliminateColumn in one assembly call. Callers have
// checked the shape and that stride is a multiple of gfniStrip.
func eliminateFused(ws []byte, stride, col int) {
	eliminateGFNI(&ws[0], stride, len(ws)/stride, col, &gfniMat)
}

//go:noescape
func addMulRowsGFNI(dst *[4]*byte, rows int, src **byte, mats *[4]uint64, cols, n int)

// addMulRowsFused is AddMulRows over the first n bytes of every slice, n
// a positive multiple of gfniStrip: it gathers the non-nil sources'
// addresses once and each four-row group's bit matrices per group, on
// the stack, and makes one assembly call per group. A last group of one
// to three rows runs the same body with its last row repeated: the
// kernel computes the spare products and never stores them. Callers have
// checked every length and that len(src) <= gfniMaxCols.
func addMulRowsFused(dst [][]byte, coef []byte, src [][]byte, n int) {
	var (
		ptrs [gfniMaxCols]*byte
		mats [gfniMaxCols][4]uint64
	)
	cols := 0
	for _, s := range src {
		if s != nil {
			ptrs[cols] = &s[0]
			cols++
		}
	}
	if cols == 0 {
		return
	}
	for i := 0; i < len(dst); i += 4 {
		var d [4]*byte
		rows := min(4, len(dst)-i)
		for r := 0; r < rows; r++ {
			d[r] = &dst[i+r][0]
		}
		row := func(r int) []byte { return coef[(i+min(r, rows-1))*len(src):][:len(src)] }
		r0, r1, r2, r3 := row(0), row(1), row(2), row(3)
		// Source-major: one pass over src fills each source's four
		// matrices. Row by row, four passes, cost twice as much (≈10 µs
		// of a 60 µs 64×128 product over 1 KiB symbols).
		m := 0
		for j, s := range src {
			if s != nil {
				mats[m] = [4]uint64{gfniMat[r0[j]], gfniMat[r1[j]], gfniMat[r2[j]], gfniMat[r3[j]]}
				m++
			}
		}
		addMulRowsGFNI(&d, rows, &ptrs[0], &mats[0], cols, n)
	}
}
