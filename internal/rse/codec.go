package rse

// The incremental payload decoder behind core.PayloadDecoder, and the
// package's only decoder. It consumes packets as they arrive and decodes
// each block the moment the block reaches k_b distinct symbols — so a
// long-lived receiver holds pooled buffers only for blocks still in
// flight, and a decoded block's parity goes straight back to the pool.
//
// Sources are copied once, into their final slot; only parity is
// buffered. Because a block is solved on its k_b-th distinct symbol, a
// block short of e sources holds exactly e parity symbols at that moment:
// as many equations as unknowns, so decodeBlock never selects rows. It
// turns those e parity buffers into syndromes in place (they are the
// decoder's own clones and are released right after, so nothing is
// copied and the caller's payloads are never written), inverts the e×e
// system and multiplies; see decodeBlock.

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
		src:     make([][]byte, c.layout.K),
		blocks:  make([]pdBlock, len(c.blocks)),
		pending: len(c.blocks),
	}
	// One backing array serves every block's received-bitmap: segmented
	// objects otherwise pay one allocation per block here.
	total := 0
	for _, bd := range c.blocks {
		total += bd.nb
	}
	gotAll := make([]bool, total)
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
	src     [][]byte // recovered source payloads by global ID (pooled)
	blocks  []pdBlock
	pending int // blocks not yet decoded
	srcRec  int
}

// pdBlock buffers one in-flight block. Received source payloads go
// straight into payloadDecoder.src; only parity payloads are buffered
// here (indexed by in-block symbol index), and they return to the pool
// as soon as the block decodes.
type pdBlock struct {
	got     []bool
	parity  [][]byte // lazily sized nb; nil for sources/unreceived
	count   int      // distinct symbols received
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
		// The single copy on the receive path, straight to its final slot.
		d.src[bd.srcOff+esi] = symbol.Clone(payload)
		d.srcRec++
	} else {
		if b.parity == nil {
			b.parity = make([][]byte, bd.nb)
		}
		b.parity[esi] = symbol.Clone(payload)
	}
	if b.count == bd.kb {
		d.decodeBlock(bi)
	}
	return d.Done()
}

// decodeBlock rebuilds the block's e missing source symbols and releases
// the buffered parity. It runs when the block reaches exactly k_b distinct
// symbols, so exactly e parity symbols are buffered — one equation per
// unknown. With G the parity generator, parity row j reads
//
//	p_j = Σ_{received i} G[j][i]·src_i + Σ_{missing m} G[j][m]·src_m
//
// so (a) folding the received sources into the parity buffers leaves the
// syndromes S_j = Σ_m G[j][m]·src_m, (b) only the e×e matrix G[received
// parity rows][missing columns] needs inverting (non-singular for any
// choice: the code is MDS), and (c) its inverse times the syndromes is
// the missing sources: O(e³ + e·k_b) where selecting and inverting k_b
// rows of the systematic matrix was O(k_b³). Matrices borrow pool buffers
// and the vectors reuse the block's own parity table, so a block decode
// allocates nothing.
func (d *payloadDecoder) decodeBlock(bi int) {
	b := &d.blocks[bi]
	bd := d.code.blocks[bi]
	src := d.src[bd.srcOff : bd.srcOff+bd.kb]
	e := 0
	for _, s := range src {
		if s == nil {
			e++
		}
	}
	if e > 0 {
		// The vectors the solve needs live in b.parity itself: slots
		// [0,k_b) belong to source indices and are never filled, and
		// e <= min(k_b, n_b-k_b), so the e buffered parity payloads
		// compact to the front (syn) and leave room for the e outputs.
		syn, out := b.parity[:0], b.parity[e:2*e]
		g := d.code.generator(bd.kb, bd.nb)
		rows := matrix.NewPooled(e, bd.kb) // the received parity rows of G
		for esi := bd.kb; esi < bd.nb; esi++ {
			if p := b.parity[esi]; p != nil {
				b.parity[esi] = nil
				copy(rows.Row(len(syn)), g.Row(esi-bd.kb))
				syn = append(syn, p)
			}
		}
		rows.MulVec(syn, src) // missing sources are nil: their columns drop out

		sub, inv := matrix.NewPooled(e, e), matrix.NewPooled(e, e)
		col := 0
		for esi, s := range src {
			if s == nil {
				for r := 0; r < e; r++ {
					sub.Set(r, col, rows.At(r, esi))
				}
				out[col] = symbol.Get(d.symLen)
				col++
			}
		}
		if err := sub.InvertTo(&inv); err != nil {
			// Any square submatrix of an MDS generator is non-singular;
			// reaching this is a construction bug.
			panic(fmt.Sprintf("rse: decode matrix singular (should be impossible for MDS): %v", err))
		}
		inv.MulVec(out, syn)
		col = 0
		for esi, s := range src {
			if s == nil {
				src[esi], out[col] = out[col], nil // ownership moves to d.src
				col++
			}
		}
		d.srcRec += e
		rows.Release()
		sub.Release()
		inv.Release()
	}
	symbol.PutAll(b.parity)
	b.parity = nil
	b.decoded = true
	d.pending--
}

func (d *payloadDecoder) Done() bool { return d.pending == 0 }

func (d *payloadDecoder) SourceRecovered() int { return d.srcRec }

func (d *payloadDecoder) Source(i int) []byte {
	if i < 0 || i >= len(d.src) {
		panic(fmt.Sprintf("rse: source index %d outside [0,%d)", i, len(d.src)))
	}
	return d.src[i]
}

// Close returns every pooled buffer (recovered sources and any parity
// still buffered for undecoded blocks) to the symbol pool.
func (d *payloadDecoder) Close() {
	symbol.PutAll(d.src)
	for i := range d.blocks {
		symbol.PutAll(d.blocks[i].parity)
		d.blocks[i].parity = nil
	}
}
