// Package gf256 implements arithmetic over the Galois field GF(2^8).
//
// The field is generated by the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same generator used by Rizzo's
// Reed-Solomon erasure codec that the reproduced paper builds on.
// Addition and subtraction are XOR; multiplication and division go through
// logarithm/exponential tables built once at package initialisation.
//
// Beyond scalar arithmetic the package provides the slice operations that
// dominate codec time, so the codec layers never loop over bytes
// themselves: Xor and XorSum (every LDGM operation), MulSlice and EliminateColumn
// (matrix inversion) and AddMulRows, the fused coefficient-matrix ×
// symbol-vector product that is the whole of Reed-Solomon encode and
// decode. Each
// dispatches, once at init from CPUID, to the best tier the process has
// (see Tier and simd.go): GFNI or AVX2 assembly on amd64, NEON on arm64,
// one tuned pure-Go table tier everywhere else and for short slices. The
// *Scalar functions are the log/exp reference every tier is tested and
// fuzzed against (FuzzGFKernels). Building with `-tags purego` forces the
// pure-Go tier everywhere.
package gf256

import (
	"encoding/binary"
	"fmt"
)

// Poly is the primitive polynomial generating the field, with the x^8 term
// included (0x11d = x^8+x^4+x^3+x^2+1).
const Poly = 0x11d

// Size is the number of field elements.
const Size = 256

var (
	// expTable[i] = alpha^i, doubled in length so Mul can skip a modulo.
	expTable [2 * Size]byte
	// logTable[x] = log_alpha(x); logTable[0] is unused (log of zero is
	// undefined) and kept at 0.
	logTable [Size]int
	// mulTable is the full 64 KiB multiplication table. It makes scalar
	// Mul branch-free and feeds the inner loops of AddMul.
	mulTable [Size][Size]byte
	// invTable[x] = x^-1 for x != 0.
	invTable [Size]byte
	// mulLow[c][x] = c*x and mulHigh[c][x] = c*(x<<4) for x in [0,16):
	// the split tables the nibble-shuffle assembly keeps in vector
	// registers (c*x = mulLow[c][x&0x0f] ^ mulHigh[c][x>>4]).
	mulLow  [Size][16]byte
	mulHigh [Size][16]byte
)

func init() {
	x := 1
	for i := 0; i < Size-1; i++ {
		expTable[i] = byte(x)
		logTable[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	// alpha^(255+i) = alpha^i; duplicate so exp lookups never wrap.
	for i := Size - 1; i < 2*Size; i++ {
		expTable[i] = expTable[i-(Size-1)]
	}
	for a := 1; a < Size; a++ {
		la := logTable[a]
		for b := 1; b < Size; b++ {
			mulTable[a][b] = expTable[la+logTable[b]]
		}
		invTable[a] = expTable[Size-1-la]
	}
	for c := 0; c < Size; c++ {
		for x := 0; x < 16; x++ {
			mulLow[c][x] = mulTable[c][x]
			mulHigh[c][x] = mulTable[c][x<<4]
		}
	}
}

// Add returns a+b in GF(2^8). Subtraction is identical.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte { return mulTable[a][b] }

// Div returns a/b in GF(2^8). It panics if b is zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[logTable[a]-logTable[b]+Size-1]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return invTable[a]
}

// Exp returns alpha^n for the field generator alpha. n may be any
// non-negative integer; it is reduced modulo 255.
func Exp(n int) byte {
	if n < 0 {
		panic(fmt.Sprintf("gf256: negative exponent %d", n))
	}
	return expTable[n%(Size-1)]
}

// Log returns log_alpha(a). It panics if a is zero.
func Log(a byte) int {
	if a == 0 {
		panic("gf256: log of zero")
	}
	return logTable[a]
}

// Pow returns a^n in GF(2^8), with a^0 == 1 (including 0^0 == 1, the usual
// convention for Vandermonde construction).
func Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return expTable[(logTable[a]*n)%(Size-1)]
}

// MulSlice sets dst[i] = c * src[i]. dst and src must have equal length;
// they may alias. A zero coefficient zeroes dst; coefficient one copies.
func MulSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		copy(dst, src)
	default:
		mt := &mulTable[c]
		n := len(src)
		dst = dst[:n]
		i := 0
		for ; i+4 <= n; i += 4 {
			dst[i] = mt[src[i]]
			dst[i+1] = mt[src[i+1]]
			dst[i+2] = mt[src[i+2]]
			dst[i+3] = mt[src[i+3]]
		}
		for ; i < n; i++ {
			dst[i] = mt[src[i]]
		}
	}
}

// MulSliceScalar is the log/exp scalar reference for MulSlice; see
// AddMulScalar.
func MulSliceScalar(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	lc := logTable[c]
	for i, s := range src {
		if s == 0 {
			dst[i] = 0
		} else {
			dst[i] = expTable[lc+logTable[s]]
		}
	}
}

// AddMul sets dst[i] ^= c * src[i]: the multiply-accumulate at the heart of
// Reed-Solomon encoding. dst and src must have equal length and must not
// alias. Slices long enough to pay for vector setup go through the SIMD
// tier when the CPU has one (see Tier); shorter slices and fallback
// builds use the unrolled full-table kernel.
func AddMul(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: AddMul length mismatch")
	}
	switch c {
	case 0:
		return
	case 1:
		Xor(dst, src)
	default:
		if simdEnabled && len(src) >= simdMinLen {
			addMulSIMD(dst, src, c)
			return
		}
		addMulUnrolled(dst, src, c)
	}
}

// addMulUnrolled is the tuned pure-Go kernel: byte-at-a-time through the
// full 64 KiB product table, 4× unrolled with one bounds check. It is the
// dispatch fallback for short slices, non-SIMD CPUs and purego builds,
// and handles the sub-vector tail of the SIMD tier.
func addMulUnrolled(dst, src []byte, c byte) {
	mt := &mulTable[c]
	n := len(src)
	dst = dst[:n] // one bounds check here instead of one per store
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] ^= mt[src[i]]
		dst[i+1] ^= mt[src[i+1]]
		dst[i+2] ^= mt[src[i+2]]
		dst[i+3] ^= mt[src[i+3]]
	}
	for ; i < n; i++ {
		dst[i] ^= mt[src[i]]
	}
}

// AddMulScalar is the portable scalar reference: one log and one exp
// lookup per byte and no product table — structurally the same kernel
// GF(2^16) is stuck with. It is the ground truth the tuned kernels are
// tested against (going through log/exp cross-validates the mulTable
// construction) and the "scalar" tier of the codec benchmarks.
func AddMulScalar(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: AddMul length mismatch")
	}
	if c == 0 {
		return
	}
	lc := logTable[c]
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[lc+logTable[s]]
		}
	}
}

// addMul2 performs two multiply-accumulates from one pass over src:
// d0[i] ^= c0*src[i] and d1[i] ^= c1*src[i]. All slices must have src's
// length; dst rows must not alias src or each other.
func addMul2(d0, d1, src []byte, c0, c1 byte) {
	if len(d0) != len(src) || len(d1) != len(src) {
		panic("gf256: addMul2 length mismatch")
	}
	if c0 == 0 || c0 == 1 || c1 == 0 || c1 == 1 {
		// Degenerate coefficients are better served by the specialised
		// single-row paths (skip / word-wide XOR).
		AddMul(d0, src, c0)
		AddMul(d1, src, c1)
		return
	}
	if simdEnabled && len(src) >= simdMinLen {
		// Two vector passes beat one shared scalar pass by a wide margin.
		addMulSIMD(d0, src, c0)
		addMulSIMD(d1, src, c1)
		return
	}
	m0, m1 := &mulTable[c0], &mulTable[c1]
	n := len(src)
	d0 = d0[:n]
	d1 = d1[:n]
	for i, s := range src {
		d0[i] ^= m0[s]
		d1[i] ^= m1[s]
	}
}

// AddMul4 performs four multiply-accumulates from one pass over src: each
// source byte is loaded once and feeds four products. It is the widest
// step of AddMulRows on the tiers without a fused kernel (AVX2, NEON,
// pure Go); every call still loads and stores its four destination rows,
// which bounds it at ≈0.1 µs per 1 KiB source on AVX2 (gf256.addmul4_mb_s
// in `go run ./bench -trace`: 8-12 GB/s of source). All slices must have
// src's length; dst rows must not alias src or each other.
func AddMul4(d0, d1, d2, d3, src []byte, c0, c1, c2, c3 byte) {
	if len(d0) != len(src) || len(d1) != len(src) || len(d2) != len(src) || len(d3) != len(src) {
		panic("gf256: AddMul4 length mismatch")
	}
	if c0 <= 1 || c1 <= 1 || c2 <= 1 || c3 <= 1 {
		addMul2(d0, d1, src, c0, c1)
		addMul2(d2, d3, src, c2, c3)
		return
	}
	if simdEnabled && len(src) >= simdMinLen {
		addMul4SIMD(d0, d1, d2, d3, src, c0, c1, c2, c3)
		return
	}
	addMul4Unrolled(d0, d1, d2, d3, src, c0, c1, c2, c3)
}

// addMul4Unrolled is the pure-Go row-blocked kernel behind AddMul4: one
// pass over src feeding four full-table lookups per byte.
func addMul4Unrolled(d0, d1, d2, d3, src []byte, c0, c1, c2, c3 byte) {
	m0, m1, m2, m3 := &mulTable[c0], &mulTable[c1], &mulTable[c2], &mulTable[c3]
	n := len(src)
	d0 = d0[:n]
	d1 = d1[:n]
	d2 = d2[:n]
	d3 = d3[:n]
	for i, s := range src {
		d0[i] ^= m0[s]
		d1[i] ^= m1[s]
		d2[i] ^= m2[s]
		d3[i] ^= m3[s]
	}
}

// AddMulRows accumulates dst[r] ^= Σ_j coef[r·len(src)+j]·src[j]: a
// row-major len(dst)×len(src) coefficient matrix times a vector of symbol
// slices, which is all a Reed-Solomon encode or decode does to payload
// bytes (matrix.MulVec). A nil src[j] drops column j from the sum. Every
// dst row and every non-nil source must have the same length; dst rows
// must not alias sources or each other, and sources are only read. With
// GFNI the whole sum runs in one assembly pass per four rows that keeps
// the rows' accumulators in registers across all sources; elsewhere it is
// the AddMul4/addMul2/AddMul ladder, one call per source.
func AddMulRows(dst [][]byte, coef []byte, src [][]byte) {
	if len(coef) != len(dst)*len(src) {
		panic("gf256: AddMulRows coefficient count mismatch")
	}
	if len(dst) == 0 {
		return
	}
	n := len(dst[0])
	for _, d := range dst {
		if len(d) != n {
			panic("gf256: AddMulRows length mismatch")
		}
	}
	for _, s := range src {
		if s != nil && len(s) != n {
			panic("gf256: AddMulRows length mismatch")
		}
	}
	done := 0
	if gfniEnabled && n >= gfniStrip && len(src) <= gfniMaxCols {
		done = n &^ (gfniStrip - 1)
		addMulRowsFused(dst, coef, src, done)
	}
	if done < n {
		addMulRowsLadder(dst, coef, src, done)
	}
}

// EliminateColumn is one Gauss-Jordan pivot step over a workspace of
// len(ws)/stride rows laid stride bytes apart: every row r but row col
// gets row r ^= ws[r·stride+col] · row col across its whole width, which
// clears column col outside the pivot row when that row holds 1 there
// (matrix.Invert). Each row's pivot-column byte is the one it holds
// before the step. len(ws) must be a multiple of stride and col a valid
// row and column. On the gfni tier, and when stride is a multiple of
// RowsStrip, the whole step is one assembly call; elsewhere it is one
// AddMulRows call with the pivot row as the only source.
func EliminateColumn(ws []byte, stride, col int) {
	if stride <= 0 || len(ws)%stride != 0 || col < 0 || col >= len(ws)/stride || col >= stride {
		panic("gf256: EliminateColumn shape mismatch")
	}
	if gfniEnabled && stride%gfniStrip == 0 {
		eliminateFused(ws, stride, col)
		return
	}
	eliminateRows(ws, stride, col)
}

// eliminateRows is EliminateColumn as one AddMulRows call: the other rows
// are the destinations and their pivot-column bytes the coefficients.
// GF(2^8) matrices have at most 256 rows, so the views fit on the stack.
func eliminateRows(ws []byte, stride, col int) {
	rows := len(ws) / stride
	var (
		othersBuf [Size][]byte
		coefBuf   [Size]byte
		pivotRow  [1][]byte
	)
	others, coef := othersBuf[:0], coefBuf[:0]
	if rows > Size {
		others, coef = make([][]byte, 0, rows), make([]byte, 0, rows)
	}
	for r := 0; r < rows; r++ {
		if r != col {
			row := ws[r*stride : (r+1)*stride]
			others = append(others, row)
			coef = append(coef, row[col])
		}
	}
	pivotRow[0] = ws[col*stride : (col+1)*stride]
	AddMulRows(others, coef, pivotRow[:])
}

// addMulRowsLadder is AddMulRows over bytes [from, n) of every slice, one
// kernel call per (row group, source): four rows at a time, then two,
// then one.
func addMulRowsLadder(dst [][]byte, coef []byte, src [][]byte, from int) {
	cols := len(src)
	row := func(i int) ([]byte, []byte) { return dst[i][from:], coef[i*cols : (i+1)*cols] }
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d0, r0 := row(i)
		d1, r1 := row(i + 1)
		d2, r2 := row(i + 2)
		d3, r3 := row(i + 3)
		for j, s := range src {
			if s != nil {
				AddMul4(d0, d1, d2, d3, s[from:], r0[j], r1[j], r2[j], r3[j])
			}
		}
	}
	if i+2 <= len(dst) {
		d0, r0 := row(i)
		d1, r1 := row(i + 1)
		for j, s := range src {
			if s != nil {
				addMul2(d0, d1, s[from:], r0[j], r1[j])
			}
		}
		i += 2
	}
	if i < len(dst) {
		d, r := row(i)
		for j, s := range src {
			if s != nil {
				AddMul(d, s[from:], r[j])
			}
		}
	}
}

// Xor sets dst[i] ^= src[i] (field addition of two symbol slices): on
// amd64 the two-source case of the XorSum kernel, elsewhere eight bytes
// per step, the uint64 loads/stores compiling to single instructions.
// The slices must have equal length and must not alias at an offset
// (dst == src is fine for the degenerate self-xor, partial overlap is
// not).
func Xor(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: Xor length mismatch")
	}
	if simdEnabled && len(dst) >= 64 {
		xorSIMD(dst, src)
		return
	}
	xorWords(dst, src)
}

// XorSum sets dst to the XOR (field sum) of srcs; no sources clear dst,
// one copies it. It is the LDGM kernel: an encoder's parity and a
// decoder's rebuilt symbol are each the sum of their equation's other
// members. On amd64 one assembly pass folds a 128-byte strip of every
// source in registers and stores it once, so dst is written and never
// read. Every slice must have dst's length; dst may be srcs[0] but must
// not otherwise overlap a source.
func XorSum(dst []byte, srcs [][]byte) {
	for _, s := range srcs {
		if len(s) != len(dst) {
			panic("gf256: XorSum length mismatch")
		}
	}
	switch {
	case len(srcs) == 0:
		clear(dst)
	case simdEnabled && len(dst) >= simdMinLen:
		xorSumSIMD(dst, srcs)
	default:
		xorSumLoop(dst, srcs)
	}
}

// xorSumLoop is XorSum as a copy and one Xor per further source.
func xorSumLoop(dst []byte, srcs [][]byte) {
	copy(dst, srcs[0])
	for _, s := range srcs[1:] {
		Xor(dst, s)
	}
}

// xorWords is the word-wide pure-Go kernel behind Xor, also used for the
// sub-vector tail of the SIMD tier.
func xorWords(dst, src []byte) {
	n := len(dst)
	i := 0
	for ; i+16 <= n; i += 16 {
		x0 := binary.LittleEndian.Uint64(dst[i:]) ^ binary.LittleEndian.Uint64(src[i:])
		x1 := binary.LittleEndian.Uint64(dst[i+8:]) ^ binary.LittleEndian.Uint64(src[i+8:])
		binary.LittleEndian.PutUint64(dst[i:], x0)
		binary.LittleEndian.PutUint64(dst[i+8:], x1)
	}
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// XorScalar is the byte-at-a-time (8-way unrolled) reference for Xor.
func XorScalar(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: Xor length mismatch")
	}
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i] ^= src[i]
		dst[i+1] ^= src[i+1]
		dst[i+2] ^= src[i+2]
		dst[i+3] ^= src[i+3]
		dst[i+4] ^= src[i+4]
		dst[i+5] ^= src[i+5]
		dst[i+6] ^= src[i+6]
		dst[i+7] ^= src[i+7]
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}
