package rse

// The incremental payload decoder behind core.PayloadDecoder, and the
// package's only decoder. It consumes packets as they arrive and decodes
// each block the moment the block reaches k_b distinct symbols.
//
// The decoder owns two slabs: the object's k source slots, and a run of
// parity slots handed out one per buffered parity arrival. A source
// payload is copied once, into its final slot; only parity is buffered.
// Because a block is solved on its k_b-th distinct symbol, a block short
// of e sources holds exactly e parity symbols at that moment: as many
// equations as unknowns, so decodeBlock never selects rows. It turns
// those e parity slots into syndromes in place (they are the decoder's
// own copies, so the caller's payloads are never written), inverts the
// e×e system and multiplies straight into the missing sources' slots; see
// decodeBlock. When the last block is solved the source slab is the
// object, and TakeSources hands it over without touching a byte.

import (
	"fmt"

	"fecperf/internal/core"
	"fecperf/internal/matrix"
	"fecperf/internal/symbol"
)

// NewDecoder implements core.Codec.
func (c *Code) NewDecoder(symLen int) (core.PayloadDecoder, error) {
	if symLen <= 0 {
		return nil, fmt.Errorf("rse: symbol length must be positive, got %d", symLen)
	}
	d := &payloadDecoder{
		code:    c,
		symLen:  symLen,
		src:     symbol.NewSlab(c.layout.K, symLen),
		blocks:  make([]pdBlock, len(c.blocks)),
		pending: len(c.blocks),
	}
	// One backing array serves every block's received-bitmap: segmented
	// objects otherwise pay one allocation per block here.
	gotAll := make([]bool, c.layout.N)
	off := 0
	for i, bd := range c.blocks {
		d.blocks[i].got = gotAll[off : off+bd.nb : off+bd.nb]
		off += bd.nb
	}
	return d, nil
}

type payloadDecoder struct {
	code    *Code
	symLen  int
	src     symbol.Slab // the k source slots by global ID, received or rebuilt in place
	par     symbol.Slab // buffered parity: one slot per arrival, made on the first
	parUsed int
	blocks  []pdBlock
	pending int // blocks not yet decoded
	srcRec  int
}

// pdBlock tracks one in-flight block. tab is the block's view table, made
// when the block first buffers a parity symbol: [0,k_b) source views
// (filled at solve time), [k_b,n_b) buffered parity by in-block index,
// and n_b-k_b more entries for the solve's output vector.
type pdBlock struct {
	got     []bool
	tab     [][]byte
	count   int // distinct symbols received
	srcGot  int // of which sources
	decoded bool
}

func (d *payloadDecoder) ReceivePayload(id int, payload []byte) bool {
	if id < 0 || id >= d.code.layout.N {
		panic(fmt.Sprintf("rse: packet id %d outside [0,%d)", id, d.code.layout.N))
	}
	if len(payload) != d.symLen {
		panic(fmt.Sprintf("rse: payload length %d, want %d", len(payload), d.symLen))
	}
	bi, esi := d.code.blockOf(id)
	b := &d.blocks[bi]
	if b.decoded || b.got[esi] {
		return d.Done()
	}
	b.got[esi] = true
	b.count++
	bd := d.code.blocks[bi]
	if esi < bd.kb {
		// The one copy between the read buffer and the decoded object.
		copy(d.src.Slot(bd.srcOff+esi), payload)
		b.srcGot++
		d.srcRec++
	} else {
		if b.tab == nil {
			b.tab = make([][]byte, 2*bd.nb-bd.kb)
		}
		if d.par.Slots() == 0 {
			d.par = symbol.NewSlab(d.code.layout.N-d.code.layout.K, d.symLen)
		}
		p := d.par.Slot(d.parUsed)
		d.parUsed++
		copy(p, payload)
		b.tab[esi] = p
	}
	if b.count == bd.kb {
		d.decodeBlock(bi)
	}
	return d.Done()
}

// decodeBlock rebuilds the block's e missing source symbols in their
// slots. It runs when the block reaches exactly k_b distinct symbols, so
// exactly e parity symbols are buffered — one equation per unknown. With
// G the parity generator, parity row j reads
//
//	p_j = Σ_{received i} G[j][i]·src_i + Σ_{missing m} G[j][m]·src_m
//
// so (a) folding the received sources into the parity slots leaves the
// syndromes S_j = Σ_m G[j][m]·src_m, (b) only the e×e matrix G[received
// parity rows][missing columns] needs inverting (non-singular for any
// choice: the code is MDS), and (c) its inverse times the syndromes is
// the missing sources: O(e³ + e·k_b) where selecting and inverting k_b
// rows of the systematic matrix was O(k_b³). Matrices borrow pool buffers
// and the vectors live in the block's view table, so a block decode
// allocates nothing.
func (d *payloadDecoder) decodeBlock(bi int) {
	b := &d.blocks[bi]
	bd := d.code.blocks[bi]
	if e := bd.kb - b.srcGot; e > 0 {
		src, par, out := b.tab[:bd.kb], b.tab[bd.kb:bd.nb], b.tab[bd.nb:bd.nb+e]
		col := 0
		for esi := range src {
			s := d.src.Slot(bd.srcOff + esi)
			if b.got[esi] {
				src[esi] = s
			} else {
				clear(s) // MulVec accumulates; src[esi] stays nil, dropping the column
				out[col] = s
				col++
			}
		}
		// Compact the e buffered parity views to the front of their region
		// (syn) and gather their generator rows alongside.
		syn := par[:0]
		g := d.code.generator(bd.kb, bd.nb)
		rows := matrix.NewPooled(e, bd.kb)
		for i, p := range par {
			if p != nil {
				copy(rows.Row(len(syn)), g.Row(i))
				syn = append(syn, p)
			}
		}
		rows.MulVec(syn, src)

		sub, inv := matrix.NewPooled(e, e), matrix.NewPooled(e, e)
		col = 0
		for esi, s := range src {
			if s == nil {
				for r := 0; r < e; r++ {
					sub.Set(r, col, rows.At(r, esi))
				}
				col++
			}
		}
		if err := sub.InvertTo(&inv); err != nil {
			// Any square submatrix of an MDS generator is non-singular;
			// reaching this is a construction bug.
			panic(fmt.Sprintf("rse: decode matrix singular (should be impossible for MDS): %v", err))
		}
		inv.MulVec(out, syn)
		d.srcRec += e
		rows.Release()
		sub.Release()
		inv.Release()
	}
	b.tab = nil
	b.decoded = true
	d.pending--
}

func (d *payloadDecoder) Done() bool { return d.pending == 0 }

func (d *payloadDecoder) SourceRecovered() int { return d.srcRec }

func (d *payloadDecoder) Source(i int) []byte {
	if i < 0 || i >= d.code.layout.K {
		panic(fmt.Sprintf("rse: source index %d outside [0,%d)", i, d.code.layout.K))
	}
	bi, esi := d.code.blockOf(i)
	if b := &d.blocks[bi]; d.src.Slots() == 0 || !(b.decoded || b.got[esi]) {
		return nil // not recovered yet, or the slab is gone (taken, closed)
	}
	return d.src.Slot(i)
}

func (d *payloadDecoder) TakeSources() symbol.Slab {
	if !d.Done() {
		panic("rse: TakeSources before the decoder is done")
	}
	return d.src.Take()
}

// Close returns the slabs the decoder still owns — the sources unless
// taken, and the buffered parity — to the symbol pool.
func (d *payloadDecoder) Close() {
	d.src.Release()
	d.par.Release()
}
