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

// referenceInverse is the textbook Gauss-Jordan inversion, one scalar
// field operation per entry: the oracle Invert is compared against.
func referenceInverse(m *Matrix) (*Matrix, error) {
	n := m.Rows()
	a, inv := m.Clone(), Identity(n)
	for col := 0; col < n; col++ {
		pivot := col
		for pivot < n && a.At(pivot, col) == 0 {
			pivot++
		}
		if pivot == n {
			return nil, ErrSingular
		}
		for j := 0; j < n; j++ {
			av, iv := a.At(col, j), inv.At(col, j)
			a.Set(col, j, a.At(pivot, j))
			inv.Set(col, j, inv.At(pivot, j))
			a.Set(pivot, j, av)
			inv.Set(pivot, j, iv)
		}
		ip := gf256.Inv(a.At(col, col))
		for j := 0; j < n; j++ {
			a.Set(col, j, gf256.Mul(a.At(col, j), ip))
			inv.Set(col, j, gf256.Mul(inv.At(col, j), ip))
		}
		for r := 0; r < n; r++ {
			c := a.At(r, col)
			if r == col || c == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)^gf256.Mul(c, a.At(col, j)))
				inv.Set(r, j, inv.At(r, j)^gf256.Mul(c, inv.At(col, j)))
			}
		}
	}
	return inv, nil
}

// TestInvertMatchesReference runs Invert — from pooled storage, where the
// workspace is the matrix's own buffer, and from plain storage, where it
// is allocated — against the scalar reference on the shapes that matter
// to the kernels behind it: one row, under and over a 128-byte strip of
// augmented row (n = 64 fills one exactly), the decoder's largest (127)
// and the generator's (255). Each size is tried dense, with zeros down
// the diagonal so that every step has to find its pivot lower and swap,
// and singular.
func TestInvertMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 31, 32, 43, 64, 127, 128, 255} {
		dense := randomDense(rng, n, n)
		zeroMinors := randomDense(rng, n, n)
		for i := 0; i < n; i++ {
			zeroMinors.Set(i, i, 0)
		}
		singular := randomDense(rng, n, n)
		if n == 1 {
			singular.Set(0, 0, 0)
		} else {
			// Last row = first row ^ 3 × second row.
			copy(singular.Row(n-1), singular.Row(0))
			gf256.AddMul(singular.Row(n-1), singular.Row(1), 3)
		}
		for name, m := range map[string]*Matrix{"dense": dense, "zero diagonal": zeroMinors, "singular": singular} {
			want, wantErr := referenceInverse(m)
			if name == "singular" && wantErr != ErrSingular {
				t.Fatalf("n=%d: reference inverted a singular matrix", n)
			}
			got, err := m.Inverse()
			pooled := NewPooledSquare(n)
			copy(pooled.data, m.data)
			pooledErr := pooled.Invert()
			if err != wantErr || pooledErr != wantErr {
				t.Fatalf("n=%d %s: Inverse err %v, pooled Invert err %v, reference %v", n, name, err, pooledErr, wantErr)
			}
			if wantErr == nil && (!got.Equal(want) || !pooled.Equal(want)) {
				t.Fatalf("n=%d %s: inverse differs from the reference", n, name)
			}
			pooled.Release()
		}
	}
}

// BenchmarkInvert43 inverts what cast-rse-lossy's decoder inverts: a
// 43×43 submatrix (43 parity rows × 43 missing-source columns, about the
// erasure count 9 % bursty loss leaves a block) of the k_b=128, n_b=192
// systematic generator, in pooled storage as rse.SolveBlock holds it.
func BenchmarkInvert43(b *testing.B) {
	const kb, nb, e = 128, 192, 43
	v := Vandermonde(nb, kb)
	top := make([]int, kb)
	for i := range top {
		top[i] = i
	}
	topInv, err := v.SubMatrix(top).Inverse()
	if err != nil {
		b.Fatal(err)
	}
	sys := v.Mul(topInv)
	rng := rand.New(rand.NewSource(9))
	rows, cols := rng.Perm(nb - kb)[:e], rng.Perm(kb)[:e]
	sub := New(e, e)
	for i, r := range rows {
		for j, c := range cols {
			sub.Set(i, j, sys.At(kb+r, c))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewPooledSquare(e)
		copy(m.data, sub.data)
		if err := m.Invert(); err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}
