package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// rowsBodies returns the AddMulRows implementations this host can run:
// the AddMul4/addMul2/AddMul ladder called directly, and the dispatch
// entry — the GFNI body plus ladder tail where the CPU has the
// instruction, the ladder again (with a log line) where it does not.
func rowsBodies(t testing.TB) map[string]func(dst [][]byte, coef []byte, src [][]byte) {
	if !gfniEnabled {
		t.Logf("kernel tier %s: no GFNI on this CPU/build, the fused body is not exercised", Tier())
	}
	return map[string]func(dst [][]byte, coef []byte, src [][]byte){
		"ladder":   func(dst [][]byte, coef []byte, src [][]byte) { addMulRowsLadder(dst, coef, src, 0) },
		"dispatch": AddMulRows,
	}
}

// TestAddMulRowsMatchesScalar is the differential test of the fused
// entry: every body against per-(row, source) AddMulScalar, over row
// counts on both sides of the four-row grouping, source counts up to the
// field limit, lengths around the 32-, 64- and 128-byte kernel steps, nil
// source columns, rows of all-0/all-1 coefficients and slices carved at
// odd offsets with guard bytes either side. Sources must come back
// untouched.
func TestAddMulRowsMatchesScalar(t *testing.T) {
	const guard = 8
	for name, body := range rowsBodies(t) {
		rng := rand.New(rand.NewSource(14))
		carve := func(n int) (buf, s []byte) {
			off := rng.Intn(32)
			buf = randSlice(rng, off+guard+n+guard)
			return buf, buf[off+guard:][:n:n]
		}
		for rows := 1; rows <= 9; rows++ {
			for _, cols := range []int{1, 2, 5, 128, 255} {
				for _, n := range []int{1, 31, 32, 63, 64, 65, 96, 127, 128, 129, 256, 1024, 1500} {
					id := fmt.Sprintf("%s rows=%d cols=%d n=%d", name, rows, cols, n)
					src, srcWant := make([][]byte, cols), make([][]byte, cols)
					for j := range src {
						if cols > 1 && rng.Intn(4) == 0 {
							continue // nil column
						}
						_, src[j] = carve(n)
						srcWant[j] = append([]byte(nil), src[j]...)
					}
					coef := randSlice(rng, rows*cols)
					for j := 0; j < cols; j++ {
						coef[j] = byte(j & 1)         // row 0: only 0 and 1
						coef[(rows-1)*cols+j] &= 0x81 // last row: 0, 1 and two others
					}
					dst, dstBuf, want := make([][]byte, rows), make([][]byte, rows), make([][]byte, rows)
					for r := range dst {
						dstBuf[r], dst[r] = carve(n)
						want[r] = append([]byte(nil), dstBuf[r]...)
						w := want[r][len(want[r])-guard-n:][:n]
						for j, s := range src {
							if s != nil {
								AddMulScalar(w, s, coef[r*cols+j])
							}
						}
					}
					body(dst, coef, src)
					for r := range dst {
						if !bytes.Equal(dstBuf[r], want[r]) {
							t.Fatalf("%s: row %d (or its guard bytes) diverges from AddMulScalar", id, r)
						}
					}
					for j := range src {
						if !bytes.Equal(src[j], srcWant[j]) {
							t.Fatalf("%s: source %d was modified", id, j)
						}
					}
				}
			}
		}
	}
}

// TestAddMulRowsDegenerate covers the shapes with nothing to do — no
// rows, no columns, all-nil columns, empty slices — and a product wider
// than the fused kernel's scratch, which must take the ladder.
func TestAddMulRowsDegenerate(t *testing.T) {
	AddMulRows(nil, nil, [][]byte{make([]byte, 64)})
	d := bytes.Repeat([]byte{0xa5}, 128)
	AddMulRows([][]byte{d}, nil, nil)
	AddMulRows([][]byte{d}, []byte{7, 9}, [][]byte{nil, nil})
	AddMulRows([][]byte{d[:0]}, []byte{7}, [][]byte{{}})
	if !bytes.Equal(d, bytes.Repeat([]byte{0xa5}, 128)) {
		t.Fatal("AddMulRows with no non-nil source changed dst")
	}

	rng := rand.New(rand.NewSource(15))
	cols := gfniMaxCols + 3
	src := make([][]byte, cols)
	for j := range src {
		src[j] = randSlice(rng, 128)
	}
	coef := randSlice(rng, 2*cols)
	got := [][]byte{randSlice(rng, 128), randSlice(rng, 128)}
	want := make([][]byte, len(got))
	for r, g := range got {
		want[r] = append([]byte(nil), g...)
		for j, s := range src {
			AddMulScalar(want[r], s, coef[r*cols+j])
		}
	}
	AddMulRows(got, coef, src)
	for r := range got {
		if !bytes.Equal(got[r], want[r]) {
			t.Errorf("%d columns: row %d diverges from AddMulScalar", cols, r)
		}
	}
}

// BenchmarkAddMulRows is the Reed-Solomon encode shape of the cast
// benchmarks: 64 parity rows over 128 sources of 1 KiB, per body.
func BenchmarkAddMulRows(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const rows, cols, n = 64, 128, 1024
	dst, src := make([][]byte, rows), make([][]byte, cols)
	for r := range dst {
		dst[r] = randSlice(rng, n)
	}
	for j := range src {
		src[j] = randSlice(rng, n)
	}
	coef := randSlice(rng, rows*cols)
	for name, body := range rowsBodies(b) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(cols * n)
			for i := 0; i < b.N; i++ {
				body(dst, coef, src)
			}
		})
	}
}
