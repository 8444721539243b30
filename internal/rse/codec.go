package rse

// The package's decode algebra. The receive state machine — which symbols
// arrived, where their bytes live, when a block is decodable — is
// core.BlockDecoder, shared with every other block code and with the
// simulator's structural receiver; it calls SolveBlock the moment a block
// short of sources reaches k_b distinct symbols.

import (
	"fmt"

	"fecperf/internal/core"
	"fecperf/internal/matrix"
)

// NewDecoder implements core.Codec.
func (c *Code) NewDecoder(symLen int) (core.PayloadDecoder, error) {
	if symLen <= 0 {
		return nil, fmt.Errorf("rse: symbol length must be positive, got %d", symLen)
	}
	return core.NewBlockDecoder(c.layout, symLen, c), nil
}

// SolveBlock implements core.BlockSolver: it rebuilds the block's e
// missing source symbols in their slots. It runs when the block reaches
// exactly k_b distinct symbols, so exactly e parity symbols are buffered
// — one equation per unknown, and no rows to select. With G the parity
// generator, parity row j reads
//
//	p_j = Σ_{received i} G[j][i]·src_i + Σ_{missing m} G[j][m]·src_m
//
// so (a) folding the received sources into the buffered parity (the
// decoder's own copies, turned into syndromes in place) leaves
// S_j = Σ_m G[j][m]·src_m, (b) only the e×e matrix G[received parity
// rows][missing columns] needs inverting (non-singular for any choice:
// the code is MDS), and (c) its inverse times the syndromes is the
// missing sources: O(e³ + e·k_b) where selecting and inverting k_b rows of
// the systematic matrix was O(k_b³). The e×e matrix is inverted in place,
// in the one pool buffer that also holds its elimination workspace, one
// gf256.EliminateColumn call per pivot (matrix.Invert). Matrices borrow
// pool buffers — two per solve — and the vectors live in the block's view
// table, so a block decode allocates nothing.
func (c *Code) SolveBlock(bi int, tab [][]byte) {
	bd := c.blocks[bi]
	src, par, out := tab[:bd.kb], tab[bd.kb:bd.nb], tab[bd.nb:]
	e := len(out)
	for _, s := range out {
		clear(s) // MulVec accumulates; a missing source's nil view drops its column
	}
	// Compact the e buffered parity views to the front of their region
	// (syn) and gather their generator rows alongside.
	syn := par[:0]
	g := c.generator(bd.kb, bd.nb)
	rows := matrix.NewPooled(e, bd.kb)
	for i, p := range par {
		if p != nil {
			copy(rows.Row(len(syn)), g.Row(i))
			syn = append(syn, p)
		}
	}
	rows.MulVec(syn, src)

	sub := matrix.NewPooledSquare(e)
	col := 0
	for esi, s := range src {
		if s == nil {
			for r := 0; r < e; r++ {
				sub.Set(r, col, rows.At(r, esi))
			}
			col++
		}
	}
	if err := sub.Invert(); err != nil {
		// Any square submatrix of an MDS generator is non-singular;
		// reaching this is a construction bug.
		panic(fmt.Sprintf("rse: decode matrix singular (should be impossible for MDS): %v", err))
	}
	sub.MulVec(out, syn)
	rows.Release()
	sub.Release()
}
