// Package matrix implements dense matrices over GF(2^8).
//
// It provides exactly what a Vandermonde-based Reed-Solomon erasure codec
// needs: matrix construction, multiplication against vectors of symbol
// slices, and Gauss-Jordan inversion. Matrices are small (at most 256×256,
// the field-imposed Reed-Solomon limit), so a dense row-major layout is both
// the simplest and the fastest representation.
package matrix

import (
	"errors"
	"fmt"

	"fecperf/internal/gf256"
	"fecperf/internal/symbol"
)

// ErrSingular is returned when attempting to invert a singular matrix.
var ErrSingular = errors.New("matrix: singular")

// Matrix is a dense rows×cols matrix over GF(2^8), stored row-major.
type Matrix struct {
	rows, cols int
	data       []byte
}

// New returns a zero rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// NewPooled returns a zero rows×cols matrix whose storage comes from the
// symbol pool — decode scratch that hot paths borrow and Release instead
// of allocating. The largest Reed-Solomon geometry (255×255) fits the
// pool's top size class, so these never fall back to the allocator.
// Returned by value so the header can live on the caller's stack.
func NewPooled(rows, cols int) Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
	return Matrix{rows: rows, cols: cols, data: symbol.Get(rows * cols)}
}

// Release returns a pooled matrix's storage to the symbol pool and
// leaves the matrix unusable. Safe to call on non-pooled matrices (the
// pool rejects foreign buffers) and idempotent.
func (m *Matrix) Release() {
	if m.data != nil {
		symbol.Put(m.data)
		m.data = nil
	}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Vandermonde returns the rows×cols matrix V with V[i][j] = alpha_i^j where
// alpha_i is the i-th distinct non-zero field element (alpha^i). Any `cols`
// rows of such a matrix are linearly independent as long as rows <= 255,
// which is what makes the derived Reed-Solomon code MDS.
func Vandermonde(rows, cols int) *Matrix {
	if rows > gf256.Size-1 {
		panic(fmt.Sprintf("matrix: Vandermonde rows %d exceeds field limit %d", rows, gf256.Size-1))
	}
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		x := gf256.Exp(i)
		for j := 0; j < cols; j++ {
			m.Set(i, j, gf256.Pow(x, j))
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) byte { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v byte) { m.data[i*m.cols+j] = v }

// Row returns a view of row i (not a copy).
func (m *Matrix) Row(i int) []byte { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// SubMatrix returns a copy of the rows of m selected by rowIdx, in order.
func (m *Matrix) SubMatrix(rowIdx []int) *Matrix {
	s := New(len(rowIdx), m.cols)
	for i, r := range rowIdx {
		copy(s.Row(i), m.Row(r))
	}
	return s
}

// Mul returns m × other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("matrix: Mul dimension mismatch %dx%d × %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	out := New(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		ri := m.Row(i)
		ro := out.Row(i)
		for t := 0; t < m.cols; t++ {
			if c := ri[t]; c != 0 {
				gf256.AddMul(ro, other.Row(t), c)
			}
		}
	}
	return out
}

// MulVec accumulates dst[i] ^= Σ_j m[i][j]·src[j], where src is a vector
// of symbol slices (one per matrix column) and dst one per matrix row.
// Every non-nil slice must have the same length. A nil src[j] drops
// column j from the sum: that is how the Reed-Solomon decoder multiplies
// by the received-source columns only. Callers that want the plain
// product pass zeroed dst. The whole product is one gf256.AddMulRows
// call, which is what makes the Reed-Solomon payload paths fast.
func (m *Matrix) MulVec(dst, src [][]byte) {
	if len(src) != m.cols || len(dst) != m.rows {
		panic("matrix: MulVec dimension mismatch")
	}
	gf256.AddMulRows(dst, m.data, src)
}

// Inverse returns m^-1 computed by Gauss-Jordan elimination with partial
// pivoting (any non-zero pivot works in a field). It returns ErrSingular if
// m is not invertible and panics if m is not square.
func (m *Matrix) Inverse() (*Matrix, error) {
	a := m.Clone()
	inv := New(m.rows, m.cols)
	if err := a.InvertTo(inv); err != nil {
		return nil, err
	}
	return inv, nil
}

// InvertTo computes m^-1 into dst without allocating: m itself is the
// elimination workspace (reduced to the identity on success, garbage on
// failure) and dst — which must share m's square shape — is overwritten
// starting from the identity. Decode paths pair it with NewPooled
// scratch so a block inversion touches the allocator zero times.
func (m *Matrix) InvertTo(dst *Matrix) error {
	if m.rows != m.cols {
		panic("matrix: Inverse of non-square matrix")
	}
	if dst.rows != m.rows || dst.cols != m.cols {
		panic(fmt.Sprintf("matrix: InvertTo into %dx%d, want %dx%d", dst.rows, dst.cols, m.rows, m.cols))
	}
	n := m.rows
	clear(dst.data)
	for i := 0; i < n; i++ {
		dst.Set(i, i, 1)
	}
	for col := 0; col < n; col++ {
		// Find a pivot at or below the diagonal.
		pivot := -1
		for r := col; r < n; r++ {
			if m.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return ErrSingular
		}
		if pivot != col {
			m.swapRows(pivot, col)
			dst.swapRows(pivot, col)
		}
		// Scale the pivot row so the pivot becomes 1.
		if p := m.At(col, col); p != 1 {
			ip := gf256.Inv(p)
			gf256.MulSlice(m.Row(col), m.Row(col), ip)
			gf256.MulSlice(dst.Row(col), dst.Row(col), ip)
		}
		// Eliminate the column everywhere else.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if c := m.At(r, col); c != 0 {
				gf256.AddMul(m.Row(r), m.Row(col), c)
				gf256.AddMul(dst.Row(r), dst.Row(col), c)
			}
		}
	}
	return nil
}

func (m *Matrix) swapRows(i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for t := range ri {
		ri[t], rj[t] = rj[t], ri[t]
	}
}

// Equal reports whether m and other have identical shape and contents.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i, v := range m.data {
		if v != other.data[i] {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("matrix %dx%d\n", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		s += fmt.Sprintf("%v\n", m.Row(i))
	}
	return s
}
