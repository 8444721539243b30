// Package rse16 implements a Reed-Solomon erasure code over GF(2^16): the
// "large block RSE" alternative the paper's Section 2.2 dismisses on
// speed grounds. With n <= 65535 a whole 20000-packet object fits one
// block, so the code is MDS over the entire object — the coupon-collector
// penalty of the segmented GF(2^8) codec disappears entirely and a
// receiver decodes from exactly k packets, whatever the schedule.
//
// What it costs is arithmetic: multiplications go through log/exp tables
// instead of a flat 64 KiB product table, and decode inversion is cubic
// in the number of erased source symbols of the (single, huge) block. The
// package exists to quantify the paper's claim; see the speed benchmarks
// and the ablation experiment.
//
// Payloads are interpreted as sequences of big-endian 16-bit symbols;
// PayloadSize must therefore be even.
package rse16

import (
	"fmt"
	"sync"

	"fecperf/internal/core"
	"fecperf/internal/gf65536"
)

// MaxBlock is the field-imposed limit on encoding symbols per block.
const MaxBlock = 65535

// Params configures a Code.
type Params struct {
	// K is the number of source packets, N the total; N <= 65535.
	K, N int
}

// Code is a single-block systematic Reed-Solomon code over GF(2^16),
// derived from a Vandermonde matrix exactly like the GF(2^8) codec.
type Code struct {
	k, n   int
	layout core.Layout
	// gen is the (n-k)×k parity generator (systematic form), built
	// lazily under genOnce: simulations never need it, and concurrent
	// encoders/decoders sharing one Code must not race the build.
	genOnce sync.Once
	gen     [][]uint16
}

// New builds the code.
func New(p Params) (*Code, error) {
	if p.K <= 0 {
		return nil, fmt.Errorf("rse16: k must be positive, got %d", p.K)
	}
	if p.N <= p.K {
		return nil, fmt.Errorf("rse16: need n > k, got k=%d n=%d", p.K, p.N)
	}
	if p.N > MaxBlock {
		return nil, fmt.Errorf("rse16: n=%d exceeds field limit %d", p.N, MaxBlock)
	}
	src := make([]int, p.K)
	for i := range src {
		src[i] = i
	}
	par := make([]int, p.N-p.K)
	for i := range par {
		par[i] = p.K + i
	}
	c := &Code{
		k: p.K, n: p.N,
		layout: core.Layout{K: p.K, N: p.N, Blocks: []core.Block{{Source: src, Parity: par}}},
	}
	c.layout.IndexBlocks()
	return c, nil
}

// Name implements core.Code.
func (c *Code) Name() string { return "rse16" }

// Layout implements core.Code.
func (c *Code) Layout() core.Layout { return c.layout }

// BlockMDS implements core.BlockMDS: a single-block MDS code, done at
// exactly k distinct packets.
func (c *Code) BlockMDS() bool { return true }

// NewReceiver implements core.Code: the structural form of the block
// decoder — done at exactly k distinct packets.
func (c *Code) NewReceiver() core.Receiver { return core.NewBlockDecoder(c.layout, 0, c) }

// generator lazily builds the systematic parity generator: the bottom
// n-k rows of V·V_top^-1 for V = Vandermonde(n, k) over GF(2^16).
func (c *Code) generator() [][]uint16 {
	c.genOnce.Do(func() {
		// Build V (n×k) with rows alpha^i.
		v := make([][]uint16, c.n)
		for i := 0; i < c.n; i++ {
			row := make([]uint16, c.k)
			x := gf65536.Exp(i)
			for j := 0; j < c.k; j++ {
				row[j] = gf65536.Pow(x, j)
			}
			v[i] = row
		}
		topInv := invert(copyRows(v[:c.k]))
		gen := make([][]uint16, c.n-c.k)
		for i := range gen {
			gen[i] = matVecRow(v[c.k+i], topInv)
		}
		c.gen = gen
	})
	return c.gen
}

// copyRows deep-copies a square matrix.
func copyRows(rows [][]uint16) [][]uint16 {
	out := make([][]uint16, len(rows))
	for i, r := range rows {
		out[i] = append([]uint16(nil), r...)
	}
	return out
}

// invert performs Gauss-Jordan inversion in place on a; it panics on a
// singular matrix (impossible for a Vandermonde top square).
func invert(a [][]uint16) [][]uint16 {
	n := len(a)
	inv := make([][]uint16, n)
	for i := range inv {
		inv[i] = make([]uint16, n)
	}
	invertInto(a, inv)
	return inv
}

// invertInto is invert writing into caller-supplied (zeroed, n×n) rows —
// the decode path hands it rows of its one scratch allocation.
func invertInto(a, inv [][]uint16) {
	n := len(a)
	for i := range inv {
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if a[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			panic("rse16: singular matrix")
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		if p := a[col][col]; p != 1 {
			ip := gf65536.Inv(p)
			gf65536.MulSlice(a[col], a[col], ip)
			gf65536.MulSlice(inv[col], inv[col], ip)
		}
		for r := 0; r < n; r++ {
			if r != col && a[r][col] != 0 {
				cc := a[r][col]
				gf65536.AddMul(a[r], a[col], cc)
				gf65536.AddMul(inv[r], inv[col], cc)
			}
		}
	}
}

// matVecRow computes row · m for a 1×n row and n×n matrix.
func matVecRow(row []uint16, m [][]uint16) []uint16 {
	out := make([]uint16, len(m[0]))
	for t, c := range row {
		if c != 0 {
			gf65536.AddMul(out, m[t], c)
		}
	}
	return out
}

// cutRows cuts flat into count equal rows: EncodeInto and SolveBlock
// take all their scratch from one zeroed allocation per call.
func cutRows(flat []uint16, count int) [][]uint16 {
	n := len(flat) / count
	rows := make([][]uint16, count)
	for i := range rows {
		rows[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return rows
}

// toSymbols reads a byte payload into dst as big-endian 16-bit symbols;
// len(p) must be 2*len(dst).
func toSymbols(dst []uint16, p []byte) {
	for i := range dst {
		dst[i] = uint16(p[2*i])<<8 | uint16(p[2*i+1])
	}
}

// putBytes writes the symbols into dst (2 bytes each, big endian).
func putBytes(dst []byte, s []uint16) {
	for i, v := range s {
		dst[2*i] = byte(v >> 8)
		dst[2*i+1] = byte(v)
	}
}

// EncodeInto computes the n-k parity payloads from the k source payloads
// into caller-supplied buffers (core.Codec semantics). All payloads must
// share one even length.
func (c *Code) EncodeInto(src, parity [][]byte) error {
	if len(src) != c.k {
		return fmt.Errorf("rse16: expected %d source payloads, got %d", c.k, len(src))
	}
	if len(parity) != c.n-c.k {
		return fmt.Errorf("rse16: expected %d parity buffers, got %d", c.n-c.k, len(parity))
	}
	symLen := len(src[0])
	for i, p := range parity {
		if len(p) != symLen {
			return fmt.Errorf("rse16: parity buffer %d has length %d, want %d", i, len(p), symLen)
		}
	}
	if symLen%2 != 0 {
		return fmt.Errorf("rse16: payload length %d is odd", symLen)
	}
	for i, p := range src {
		if len(p) != symLen {
			return fmt.Errorf("rse16: payload %d has length %d, want %d", i, len(p), symLen)
		}
	}
	// Rows 0..k-1 hold the sources as symbols, row k the accumulator.
	symSrc := cutRows(make([]uint16, (c.k+1)*symLen/2), c.k+1)
	for i, p := range src {
		toSymbols(symSrc[i], p)
	}
	acc := symSrc[c.k]
	for i, row := range c.generator() {
		clear(acc)
		for j, coef := range row {
			if coef != 0 {
				gf65536.AddMul(acc, symSrc[j], coef)
			}
		}
		putBytes(parity[i], acc)
	}
	return nil
}

// Encode implements core.Codec: EncodeInto with one pooled buffer per
// parity symbol, owned by the caller.
func (c *Code) Encode(src [][]byte) ([][]byte, error) { return core.EncodePooled(c, src) }

// NewDecoder implements core.Codec. The symbol length must be even
// (payloads are sequences of 16-bit symbols).
func (c *Code) NewDecoder(symLen int) (core.PayloadDecoder, error) {
	if symLen <= 0 {
		return nil, fmt.Errorf("rse16: symbol length must be positive, got %d", symLen)
	}
	if symLen%2 != 0 {
		return nil, fmt.Errorf("rse16: symbol length %d is odd (payloads are 16-bit symbols)", symLen)
	}
	return core.NewBlockDecoder(c.layout, symLen, c), nil
}

// SolveBlock implements core.BlockSolver for the single block: it solves
// the k×k system of the k symbols present in the view table (the code is
// MDS over the whole object) and writes the missing sources into their
// slots. All scratch — equation rows, the inverse, right-hand sides and
// the accumulator — is cut from one zeroed allocation (NewDecoder refused
// odd symbol lengths).
func (c *Code) SolveBlock(_ int, tab [][]byte) {
	k := c.k
	gen := c.generator()
	out := tab[c.n:]
	flat := make([]uint16, 2*k*k+(k+1)*len(out[0])/2)
	mat := cutRows(flat[:2*k*k], 2*k)
	rows, inv := mat[:k], mat[k:]
	// Rows 0..k-1 hold the right-hand sides, row k the accumulator.
	rhs := cutRows(flat[2*k*k:], k+1)
	acc := rhs[k]
	r := 0
	for id, pay := range tab[:c.n] {
		if pay == nil {
			continue
		}
		if id < k {
			rows[r][id] = 1
		} else {
			copy(rows[r], gen[id-k])
		}
		toSymbols(rhs[r], pay)
		r++
	}
	invertInto(rows, inv)
	for i := 0; i < k; i++ {
		if tab[i] != nil {
			continue
		}
		clear(acc)
		for t, coef := range inv[i] {
			if coef != 0 {
				gf65536.AddMul(acc, rhs[t], coef)
			}
		}
		putBytes(out[0], acc)
		out = out[1:]
	}
}
