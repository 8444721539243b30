package gf256

import (
	"bytes"
	"testing"
)

// FuzzGFKernels cross-checks the dispatch entry points (assembly on
// capable hardware, unrolled table otherwise) against the *Scalar
// log/exp references on fuzzer-chosen lengths, offsets and coefficients.
// The offsets slide the slices inside a larger buffer so the vector
// kernels see every load/store alignment, and lengths that are not
// multiples of the vector width exercise the unaligned-tail split (SIMD
// body + table tail).
func FuzzGFKernels(f *testing.F) {
	f.Add(uint16(1024), uint8(0), uint8(0x53), []byte("seed material for the gf kernels"))
	f.Add(uint16(33), uint8(7), uint8(2), []byte{1, 2, 3})
	f.Add(uint16(31), uint8(31), uint8(0xff), []byte{0xaa})
	f.Add(uint16(0), uint8(0), uint8(1), []byte{})
	f.Add(uint16(65), uint8(13), uint8(0), []byte{9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, n16 uint16, off8, c uint8, seed []byte) {
		n := int(n16) % 4096
		off := int(off8) % 64
		if len(seed) == 0 {
			seed = []byte{0}
		}
		// Deterministic contents: repeat the fuzzer's seed bytes across
		// padded buffers, then carve the working slices at off.
		fill := func(buf []byte, salt byte) {
			for i := range buf {
				buf[i] = seed[i%len(seed)] ^ salt ^ byte(i)
			}
		}
		srcBuf := make([]byte, off+n)
		fill(srcBuf, 0x11)
		src := srcBuf[off:]

		mkDst := func(salt byte) (got, want []byte) {
			buf := make([]byte, off+n)
			fill(buf, salt)
			return buf[off:], append([]byte(nil), buf[off:]...)
		}

		// AddMul: dispatch vs scalar.
		d, w := mkDst(0x22)
		AddMul(d, src, c)
		AddMulScalar(w, src, c)
		if !bytes.Equal(d, w) {
			t.Fatalf("n=%d off=%d c=%#x: AddMul diverges from AddMulScalar", n, off, c)
		}

		// AddMul4 with four related coefficients (covers degenerate rows
		// when c is 0 or 1).
		cs := [4]byte{c, c ^ 0x1d, c ^ 0xa7, Mul(c, 29) ^ 3}
		var got4, want4 [4][]byte
		for r := 0; r < 4; r++ {
			got4[r], want4[r] = mkDst(0x33 + byte(r))
			AddMulScalar(want4[r], src, cs[r])
		}
		AddMul4(got4[0], got4[1], got4[2], got4[3], src, cs[0], cs[1], cs[2], cs[3])
		for r := 0; r < 4; r++ {
			if !bytes.Equal(got4[r], want4[r]) {
				t.Fatalf("n=%d off=%d cs=%v row=%d: AddMul4 diverges from AddMulScalar", n, off, cs, r)
			}
		}

		// AddMulRows: 1..5 rows over three sources (src twice, so a
		// shared source is covered), the middle one nil at odd offsets.
		src2Buf := make([]byte, off+n)
		fill(src2Buf, 0x55)
		srcs := [][]byte{src, src2Buf[off:], src}
		if off%2 == 1 {
			srcs[1] = nil
		}
		rows := 1 + off%5
		coef := make([]byte, rows*len(srcs))
		for i := range coef {
			coef[i] = Mul(c, byte(i+1)) ^ byte(i>>1)
		}
		gotR, wantR := make([][]byte, rows), make([][]byte, rows)
		for r := range gotR {
			gotR[r], wantR[r] = mkDst(0x66 + byte(r))
			for j, s := range srcs {
				if s != nil {
					AddMulScalar(wantR[r], s, coef[r*len(srcs)+j])
				}
			}
		}
		AddMulRows(gotR, coef, srcs)
		for r := range gotR {
			if !bytes.Equal(gotR[r], wantR[r]) {
				t.Fatalf("n=%d off=%d c=%#x rows=%d row=%d: AddMulRows diverges from AddMulScalar", n, off, c, rows, r)
			}
		}

		// Xor: dispatch vs scalar.
		d, w = mkDst(0x44)
		Xor(d, src)
		XorScalar(w, src)
		if !bytes.Equal(d, w) {
			t.Fatalf("n=%d off=%d: Xor diverges from XorScalar", n, off)
		}

		// XorSum over 0..9 sources (src twice when there are several),
		// into a dst of stale bytes, then in place into its first source.
		cnt := int(c) % 10
		sums := make([][]byte, cnt)
		for i := range sums {
			buf := make([]byte, off+n)
			fill(buf, 0x77+byte(i))
			sums[i] = buf[off:]
		}
		if cnt > 1 {
			sums[cnt-1] = src
		}
		want := xorSumScalar(n, sums)
		d, _ = mkDst(0x88)
		XorSum(d, sums)
		if !bytes.Equal(d, want) {
			t.Fatalf("n=%d off=%d sources=%d: XorSum diverges from the scalar sum", n, off, cnt)
		}
		if cnt > 0 {
			XorSum(sums[0], sums)
			if !bytes.Equal(sums[0], want) {
				t.Fatalf("n=%d off=%d sources=%d: XorSum into its first source diverges from the scalar sum", n, off, cnt)
			}
		}
	})
}
