package core

import (
	"fmt"
	"math/bits"

	"fecperf/internal/symbol"
)

// BlockSolver is the algebra a block code family supplies to
// BlockDecoder; everything else about receiving such a code is shared.
type BlockSolver interface {
	// SolveBlock rebuilds the missing source symbols of one block, which
	// has just received its k_b-th distinct symbol and lacks e >= 1
	// sources. tab is the block's view table, n_b+e entries in three
	// regions: [0,k_b) the source symbols by in-block index, nil where
	// missing; [k_b,n_b) the buffered parity symbols by in-block index,
	// nil where not received (exactly e are present); [n_b,n_b+e) the
	// slots of the missing sources in index order, holding stale bytes,
	// which SolveBlock must fill. The parity views are the decoder's own
	// copies and may be used as scratch.
	SolveBlock(block int, tab [][]byte)
}

// BlockDecoder is the receive state machine of every code that decodes
// per block at a distinct-symbol threshold (BlockMDS): Reed-Solomon over
// either field and the no-FEC baseline. A block with k_b sources is
// decoded the moment k_b distinct symbols of it have arrived. With
// symLen == 0 it is structural — the paper's counting receiver, driven
// through ReceiveBatch (or Receive, a batch of one); otherwise it is a
// PayloadDecoder, driven through ReceivePayload: a source payload is
// copied once, into its final slot of the source slab, a parity payload
// into the next slot of the parity slab, and the solver writes rebuilt
// sources straight into their slots. Both modes count arrivals through
// one path, so the simulator measures the decoder the wire ships.
type BlockDecoder struct {
	k        int // source symbols
	symLen   int // 0 = structural mode
	solver   BlockSolver
	blockIdx []int32  // the layout's id→block table: one entry per packet ID
	got      []uint64 // received-bitmap over global packet IDs
	blocks   []blockState
	src      symbol.Slab // the k source slots by global ID, received or rebuilt in place
	par      symbol.Slab // buffered parity: one slot per arrival, made on the first
	parUsed  int
	pending  int // blocks not yet decoded
	srcRec   int // source symbols received or rebuilt
	buffered int // distinct symbols held by undecoded blocks

	home   *symbol.FreeList[BlockDecoder] // the layout's, where Close hands a payload decoder back
	closed bool                           // Close ran: the decoder went back to home
}

// blockTables recycles the blocks' view tables.
var blockTables symbol.ViewPool

// blockState tracks one block. tab is its view table (see BlockSolver),
// borrowed from blockTables when the block first buffers a parity payload
// and returned when the block decodes, or in Close.
type blockState struct {
	tab            *[][]byte
	srcOff, parOff int32 // first global source / parity ID
	kb, pb         int32 // source / parity symbols
	count          int32 // distinct symbols received, kb once decoded
	srcGot         int32 // of which sources
}

func (b *blockState) decoded() bool { return b.count == b.kb }

// NewBlockDecoder returns a decoder for the layout: structural when
// symLen is 0, carrying payloads of symLen bytes otherwise. solver may be
// nil for a code without parity. Packet IDs map to blocks by the layout's
// table and to in-block indexes by offset, so the layout must list its
// blocks in ID order, each block's sources and parities a contiguous
// ascending run; anything else is a bug in the code family and panics. A
// payload decoder of a layout indexed by IndexBlocks is one that a
// previous Close gave back, reset, where there is one: only its source
// slab's table is new.
func NewBlockDecoder(l Layout, symLen int, solver BlockSolver) *BlockDecoder {
	if symLen > 0 && l.decoders != nil {
		if d := l.decoders.Get(); d != nil {
			d.symLen, d.solver, d.closed = symLen, solver, false
			d.reset()
			d.src = symbol.NewSlab(l.K, symLen)
			return d
		}
	}
	d := &BlockDecoder{
		k:       l.K,
		symLen:  symLen,
		solver:  solver,
		got:     make([]uint64, (l.N+63)/64),
		blocks:  make([]blockState, len(l.Blocks)),
		pending: len(l.Blocks),
	}
	srcOff, parOff := 0, l.K
	for bi, b := range l.Blocks {
		for i, id := range b.Source {
			if id != srcOff+i {
				panic(fmt.Sprintf("core: block %d sources are not the contiguous run from %d", bi, srcOff))
			}
		}
		for i, id := range b.Parity {
			if id != parOff+i {
				panic(fmt.Sprintf("core: block %d parities are not the contiguous run from %d", bi, parOff))
			}
		}
		d.blocks[bi] = blockState{srcOff: int32(srcOff), parOff: int32(parOff),
			kb: int32(len(b.Source)), pb: int32(len(b.Parity))}
		srcOff += len(b.Source)
		parOff += len(b.Parity)
	}
	if srcOff != l.K || parOff != l.N {
		panic(fmt.Sprintf("core: blocks cover %d source / %d total packets, want %d / %d", srcOff, parOff, l.K, l.N))
	}
	d.blockIdx = l.BlockIndex()
	if symLen > 0 {
		d.src = symbol.NewSlab(l.K, symLen)
		d.home = l.decoders
	}
	return d
}

// blockOf maps a global packet ID to its block and in-block index
// (0..n_b-1, sources first).
func (d *BlockDecoder) blockOf(id int) (bi, idx int) {
	bi = int(d.blockIdx[id])
	b := &d.blocks[bi]
	if id < d.k {
		return bi, id - int(b.srcOff)
	}
	return bi, int(b.kb) + id - int(b.parOff)
}

// Receive implements Receiver (structural mode): a batch of one. It
// panics on a payload decoder, whose symbols need their bytes: use
// ReceivePayload.
func (d *BlockDecoder) Receive(id int) bool {
	if d.symLen != 0 {
		panic("core: Receive on a payload decoder")
	}
	if uint(id) >= uint(len(d.blockIdx)) {
		d.outside(id)
	}
	_, done, _ := d.count([]int32{int32(id)}, 1)
	return done
}

// ReceiveBatch implements BatchReceiver (structural mode). It panics on
// a payload decoder.
func (d *BlockDecoder) ReceiveBatch(ids []int32, arrived uint64) (consumed int, decoded bool, peak int) {
	if d.symLen != 0 {
		panic("core: ReceiveBatch on a payload decoder")
	}
	return d.count(ids, arrived)
}

// count is the receive path of both modes, on locals: it counts the
// arrival of ids[j] for each set bit j of arrived — a new symbol of an
// undecoded block, or nothing — and stops after the arrival that decodes
// the object. Payloads are ReceivePayload's business.
func (d *BlockDecoder) count(ids []int32, arrived uint64) (n int, done bool, peak int) {
	got, blocks, blockIdx, k := d.got, d.blocks, d.blockIdx, int32(d.k)
	pending, srcRec, buffered := d.pending, d.srcRec, d.buffered
	for ; arrived != 0; arrived &= arrived - 1 {
		n++
		id := ids[bits.TrailingZeros64(arrived)]
		if uint32(id) >= uint32(len(blockIdx)) {
			d.outside(int(id))
		}
		if w, bit := id>>6, uint64(1)<<(id&63); got[w]&bit == 0 {
			if b := &blocks[blockIdx[id]]; b.count != b.kb {
				got[w] |= bit
				b.count++
				buffered++
				if id < k {
					b.srcGot++
					srcRec++
				}
				if b.count == b.kb {
					srcRec += int(b.kb - b.srcGot)
					buffered -= int(b.kb)
					pending--
				}
			}
		}
		peak = max(peak, buffered)
		if pending == 0 {
			break
		}
	}
	d.pending, d.srcRec, d.buffered = pending, srcRec, buffered
	return n, pending == 0, peak
}

func (d *BlockDecoder) outside(id int) {
	panic(fmt.Sprintf("core: packet id %d outside [0,%d)", id, len(d.blockIdx)))
}

// ReceivePayload implements PayloadDecoder. The payload is only read
// during the call: a source is copied to its final slot, a parity symbol
// to the next parity slot; count then counts it, and a block it decodes
// is solved.
func (d *BlockDecoder) ReceivePayload(id int, payload []byte) bool {
	if d.symLen == 0 {
		panic("core: ReceivePayload on a structural decoder")
	}
	if len(payload) != d.symLen {
		panic(fmt.Sprintf("core: payload length %d, want %d", len(payload), d.symLen))
	}
	if uint(id) >= uint(len(d.blockIdx)) {
		d.outside(id)
	}
	if d.has(id) {
		return d.Done()
	}
	bi, idx := d.blockOf(id)
	b := &d.blocks[bi]
	if b.decoded() {
		return d.Done()
	}
	kb, nb := int(b.kb), int(b.kb+b.pb)
	e := kb - int(b.srcGot) // sources the block lacks after this arrival
	if idx < kb {
		e--
		// The one copy between the read buffer and the decoded object.
		copy(d.src.Draw(id), payload)
	} else {
		if b.tab == nil {
			b.tab = blockTables.Get(2*nb - kb)
		}
		if d.par.Slots() == 0 {
			// Each block buffers at most k_b symbols and has n_b-k_b parities.
			d.par = symbol.NewSlab(min(d.k, len(d.blockIdx)-d.k), d.symLen)
		}
		p := d.par.Draw(d.parUsed)
		d.parUsed++
		copy(p, payload)
		(*b.tab)[idx] = p
	}
	_, done, _ := d.count([]int32{int32(id)}, 1)
	if b.decoded() {
		if e > 0 {
			d.solve(bi, b, kb, nb, e)
		}
		b.releaseTab()
	}
	return done
}

// solve completes block bi's view table — source views where received,
// the e missing sources' slots as the output region — and hands it to
// the family's solver.
func (d *BlockDecoder) solve(bi int, b *blockState, kb, nb, e int) {
	tab := *b.tab
	src, out := tab[:kb], tab[nb:nb]
	for i := range src {
		id := int(b.srcOff) + i
		if d.has(id) {
			src[i] = d.src.Slot(id)
		} else {
			out = append(out, d.src.Draw(id))
		}
	}
	d.solver.SolveBlock(bi, tab[:nb+e])
}

func (b *blockState) releaseTab() {
	if b.tab != nil {
		blockTables.Put(b.tab)
		b.tab = nil
	}
}

func (d *BlockDecoder) has(id int) bool { return d.got[id>>6]&(1<<(id&63)) != 0 }

// Reset implements Resetter, between simulated trials. It panics on a
// payload decoder, whose slabs and view tables have owners.
func (d *BlockDecoder) Reset() {
	if d.symLen != 0 {
		panic("core: Reset on a payload decoder")
	}
	d.reset()
}

func (d *BlockDecoder) reset() {
	clear(d.got)
	for i := range d.blocks {
		d.blocks[i].count, d.blocks[i].srcGot = 0, 0
	}
	d.pending, d.srcRec, d.buffered, d.parUsed = len(d.blocks), 0, 0, 0
}

// Done implements Receiver and PayloadDecoder.
func (d *BlockDecoder) Done() bool { return d.pending == 0 }

// SourceRecovered implements Receiver and PayloadDecoder.
func (d *BlockDecoder) SourceRecovered() int { return d.srcRec }

// BufferedSymbols implements MemoryReporter: symbols of undecoded blocks
// must be held; a decoded block's sources stream out to the application
// and its parity is dropped.
func (d *BlockDecoder) BufferedSymbols() int { return d.buffered }

// Source implements PayloadDecoder.
func (d *BlockDecoder) Source(i int) []byte {
	if d.symLen == 0 {
		panic("core: Source on a structural decoder")
	}
	if i < 0 || i >= d.k {
		panic(fmt.Sprintf("core: source index %d outside [0,%d)", i, d.k))
	}
	if d.src.Slots() == 0 || !(d.blocks[d.blockIdx[i]].decoded() || d.has(i)) {
		return nil // not recovered yet, or the slab is gone (taken, closed)
	}
	return d.src.Slot(i)
}

// TakeSources implements PayloadDecoder.
func (d *BlockDecoder) TakeSources() symbol.Slab {
	if d.symLen == 0 || !d.Done() {
		panic("core: TakeSources needs a payload decoder that is done")
	}
	return d.src.Take()
}

// Close implements PayloadDecoder: the slabs the decoder still owns —
// the sources unless taken, and the buffered parity — go back to the
// symbol pool, the view tables of blocks that never decoded to theirs,
// and the decoder itself to its layout's code, whose next payload decoder
// it becomes. The caller must drop its pointer: the decoder, and any
// slice Source returned, must not be used after Close. A second Close
// before the code hands the decoder out again is a no-op; Close is a
// no-op for structural decoders.
func (d *BlockDecoder) Close() {
	if d.symLen == 0 || d.closed {
		return
	}
	d.src.Release()
	d.par.Release()
	for i := range d.blocks {
		d.blocks[i].releaseTab()
	}
	d.closed = true
	if d.home != nil {
		d.home.Put(d)
	}
}
