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

// invStride is the row length of Invert's workspace for an n×n matrix:
// the augmented row [m | I], 2n bytes, padded to the strip the gfni
// tier's kernels work in — so on that tier each elimination step is one
// gf256.EliminateColumn assembly call, and elsewhere the step's
// AddMulRows call never reaches the per-row ladder for a tail.
func invStride(n int) int {
	return (2*n + gf256.RowsStrip - 1) &^ (gf256.RowsStrip - 1)
}

// NewPooledSquare returns a zero n×n pooled matrix with Invert's
// workspace behind it in the same pool buffer, so inverting it touches
// the allocator zero times. The decode-path sizes (n ≤ 127, the most
// sources a 255-symbol block can lack and still have parity for) fit a
// 32 KiB buffer; larger ones fall through the pool to plain make.
func NewPooledSquare(n int) Matrix {
	if n <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", n, n))
	}
	return Matrix{rows: n, cols: n, data: symbol.Get(n * invStride(n))[:n*n]}
}

// Inverse returns m^-1; see Invert. It returns ErrSingular if m is not
// invertible and panics if m is not square.
func (m *Matrix) Inverse() (*Matrix, error) {
	inv := m.Clone()
	if err := inv.Invert(); err != nil {
		return nil, err
	}
	return inv, nil
}

// Invert replaces square m with m^-1 by Gauss-Jordan elimination (the
// pivot is the first non-zero entry at or below the diagonal: any
// non-zero pivot works in a field). It returns ErrSingular, leaving m
// garbage, if m is not invertible, and panics if m is not square.
//
// The elimination runs on augmented rows [m | I] of invStride bytes, and
// clearing a pivot's column from every other row — all other rows ^=
// their column entry × the pivot row — is one gf256.EliminateColumn
// call: on the gfni tier one assembly pass over the whole workspace,
// elsewhere one AddMulRows call, four rows per kernel step. Either way
// the n² row updates of an inversion never run as 2n² short single-row
// calls. A matrix from NewPooledSquare carries the workspace in its own
// buffer; any other allocates it.
func (m *Matrix) Invert() error {
	if m.rows != m.cols {
		panic("matrix: Inverse of non-square matrix")
	}
	n, w := m.rows, invStride(m.rows)
	var ws []byte
	if cap(m.data) >= n*w {
		ws = m.data[:n*w]
	} else {
		ws = make([]byte, n*w)
	}
	// Spread the rows from n bytes apart to w, last first: in m's own
	// storage row i lands at or above where it was, on top of nothing
	// still to move.
	for i := n - 1; i >= 0; i-- {
		row := ws[i*w : (i+1)*w]
		copy(row, m.data[i*n:(i+1)*n])
		clear(row[n:])
		row[n+i] = 1
	}

	for col := 0; col < n; col++ {
		pivot := col
		for pivot < n && ws[pivot*w+col] == 0 {
			pivot++
		}
		if pivot == n {
			return ErrSingular
		}
		prow := ws[col*w : (col+1)*w]
		if pivot != col {
			other := ws[pivot*w : (pivot+1)*w]
			for t := range prow[:2*n] {
				prow[t], other[t] = other[t], prow[t]
			}
		}
		if p := prow[col]; p != 1 {
			// Earlier steps cleared the columns left of the pivot.
			gf256.MulSlice(prow[col:2*n], prow[col:2*n], gf256.Inv(p))
		}
		gf256.EliminateColumn(ws, w, col)
	}
	// Pack the inverse halves back to n bytes apart, first row first.
	for i := 0; i < n; i++ {
		copy(m.data[i*n:(i+1)*n], ws[i*w+n:i*w+2*n])
	}
	return nil
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
