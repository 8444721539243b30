package matrix

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"fecperf/internal/gf256"
)

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := byte(0)
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity[%d][%d] = %d", i, j, id.At(i, j))
			}
		}
	}
}

func TestNewInvalidDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 3) did not panic")
		}
	}()
	New(0, 3)
}

func TestVandermondeFirstColumnOnes(t *testing.T) {
	v := Vandermonde(10, 5)
	for i := 0; i < 10; i++ {
		if v.At(i, 0) != 1 {
			t.Fatalf("V[%d][0] = %d, want 1", i, v.At(i, 0))
		}
	}
}

func TestVandermondeDistinctGenerators(t *testing.T) {
	v := Vandermonde(20, 3)
	seen := map[byte]bool{}
	for i := 0; i < 20; i++ {
		x := v.At(i, 1)
		if seen[x] {
			t.Fatalf("duplicate generator %d at row %d", x, i)
		}
		seen[x] = true
	}
}

func TestVandermondeRowsAreGeometric(t *testing.T) {
	v := Vandermonde(8, 6)
	for i := 0; i < 8; i++ {
		x := v.At(i, 1)
		for j := 1; j < 6; j++ {
			if want := gf256.Pow(x, j); v.At(i, j) != want {
				t.Fatalf("V[%d][%d] = %d, want %d", i, j, v.At(i, j), want)
			}
		}
	}
}

func TestVandermondeTooManyRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Vandermonde(256, 2) did not panic")
		}
	}()
	Vandermonde(256, 2)
}

func TestIdentityInverse(t *testing.T) {
	id := Identity(5)
	inv, err := id.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Equal(id) {
		t.Fatal("Identity inverse is not identity")
	}
}

func randomInvertible(rng *rand.Rand, n int) *Matrix {
	for {
		m := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, byte(rng.Intn(256)))
			}
		}
		if _, err := m.Inverse(); err == nil {
			return m
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(12)
		m := randomInvertible(rng, n)
		inv, err := m.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		if prod := m.Mul(inv); !prod.Equal(Identity(n)) {
			t.Fatalf("m × m^-1 != I for n=%d:\n%v", n, prod)
		}
		if prod := inv.Mul(m); !prod.Equal(Identity(n)) {
			t.Fatalf("m^-1 × m != I for n=%d", n)
		}
	}
}

func TestSingularDetected(t *testing.T) {
	m := New(3, 3)
	// Row 2 = row 0 ^ row 1 (linearly dependent over GF(2^8)).
	vals := [][]byte{{1, 2, 3}, {4, 5, 6}, {1 ^ 4, 2 ^ 5, 3 ^ 6}}
	for i, row := range vals {
		for j, v := range row {
			m.Set(i, j, v)
		}
	}
	if _, err := m.Inverse(); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestZeroMatrixSingular(t *testing.T) {
	if _, err := New(4, 4).Inverse(); err != ErrSingular {
		t.Fatalf("zero matrix inverse: got %v, want ErrSingular", err)
	}
}

func TestAnySquareVandermondeSubmatrixInvertible(t *testing.T) {
	// The MDS property of the RS construction: any k rows of a Vandermonde
	// matrix with distinct generators form an invertible k×k matrix.
	rng := rand.New(rand.NewSource(2))
	const k = 8
	v := Vandermonde(40, k)
	for trial := 0; trial < 50; trial++ {
		idx := rng.Perm(40)[:k]
		sub := v.SubMatrix(idx)
		if _, err := sub.Inverse(); err != nil {
			t.Fatalf("Vandermonde submatrix rows %v singular: %v", idx, err)
		}
	}
}

// TestMulVecMatchesMul checks MulVec against Mul in both of its uses: the
// plain product into zeroed dst, and accumulation on top of existing dst
// contents with a nil src entry, which must act as a zero column. The
// shapes cover short symbols (the per-source kernels: one group of four
// rows, one of two, one single) and, at 200 bytes, a whole strip of the
// fused kernel plus a tail, with 1, 2, 3 and 4+3 rows so every
// row-remainder of its four-row grouping is hit.
func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range []struct{ rows, symLen int }{{7, 9}, {1, 200}, {2, 200}, {3, 200}, {7, 200}} {
		const cols = 6
		rows, symLen := shape.rows, shape.symLen
		m := New(rows, cols)
		rng.Read(m.data)
		col := New(cols, symLen)
		rng.Read(col.data)
		src := make([][]byte, cols)
		for j := range src {
			src[j] = col.Row(j)
		}
		dst := make([][]byte, rows)
		for i := range dst {
			dst[i] = make([]byte, symLen)
		}
		check := func(what string, want *Matrix) {
			t.Helper()
			for i := 0; i < rows; i++ {
				if !bytes.Equal(dst[i], want.Row(i)) {
					t.Fatalf("%dx%d over %d bytes, %s: MulVec row %d = %v, want %v", rows, cols, symLen, what, i, dst[i], want.Row(i))
				}
			}
		}
		m.MulVec(dst, src)
		product := m.Mul(col)
		check("product", product)

		// Second pass with column 2 dropped: dst ends as product ^ partial.
		src[2] = nil
		clear(col.Row(2))
		partial := m.Mul(col)
		for i := range partial.data {
			partial.data[i] ^= product.data[i]
		}
		m.MulVec(dst, src)
		check("accumulate with a nil column", partial)
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with mismatched dims did not panic")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestInverseNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inverse of non-square did not panic")
		}
	}()
	New(2, 3).Inverse() //nolint:errcheck
}

func TestCloneIsDeep(t *testing.T) {
	m := Identity(3)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestSubMatrixOrderPreserved(t *testing.T) {
	v := Vandermonde(10, 4)
	s := v.SubMatrix([]int{7, 2, 9})
	for j := 0; j < 4; j++ {
		if s.At(0, j) != v.At(7, j) || s.At(1, j) != v.At(2, j) || s.At(2, j) != v.At(9, j) {
			t.Fatal("SubMatrix rows out of order")
		}
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomDense(r, 3, 4), randomDense(r, 4, 2), randomDense(r, 2, 5)
		_ = rng
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func randomDense(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, byte(r.Intn(256)))
		}
	}
	return m
}

func BenchmarkInverse64(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := randomInvertible(rng, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Inverse(); err != nil {
			b.Fatal(err)
		}
	}
}
