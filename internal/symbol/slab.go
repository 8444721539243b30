package symbol

import (
	"iter"
	"math/bits"
)

// Slab is an object's worth of equal-size slots — the unit of buffer
// ownership on the cast datapath. A sender's slab holds one ready-to-send
// frame per packet; a decoder's holds one payload per symbol. Slot i is
// bytes [(i mod per)·stride, +stride) of buffer i/per, where every buffer
// is one pooled allocation of per = ⌊MaxPooled/stride⌋ slots (fewer in a
// small object and in an object's last buffer, which take the smallest
// class that fits; one unpooled buffer per slot when stride exceeds
// MaxPooled).
//
// Buffers are drawn as their first slot is asked for (Draw), so a slab's
// memory follows what was actually written: a header announcing a huge object
// costs the buffer table and one buffer, never slots·stride bytes. The
// table itself comes from a free list of its own size class, travels with
// the slab through Take and Reset, and goes back in Release. Buffers
// come from the pool unzeroed — a slot holds stale bytes until its owner
// writes it, and owners write every byte they later read or send.
//
// The zero Slab has no slots. A Slab is owned by one holder at a time.
// Draw takes a buffer on first use, so it is not safe concurrently; Slot
// only reads the slab, so once every slot has been written any number of
// holders may call it (a finished slab is read-only: that is how several
// senders share one object). Release returns every buffer
// to the pool, after which any view into the slab is dead.
type Slab struct {
	slots, stride, per int
	bufs               [][]byte // nil until a slot of the buffer is first used
}

// NewSlab returns a slab of slots slots of stride bytes each. It draws no
// buffer, only the buffer table, which is recycled.
func NewSlab(slots, stride int) Slab {
	if slots < 0 || stride <= 0 {
		panic("symbol: slab needs slots >= 0 and stride > 0")
	}
	per := MaxPooled / stride
	if per == 0 {
		per = 1
	}
	if per > slots {
		per = slots
	}
	s := Slab{slots: slots, stride: stride, per: per}
	if slots > 0 {
		s.bufs = getTable((slots + per - 1) / per)
	}
	return s
}

// Slots returns the number of slots.
func (s *Slab) Slots() int { return s.slots }

// Draw returns slot i, drawing its buffer from the pool on first use: the
// accessor for a slot about to be written for the first time.
func (s *Slab) Draw(i int) []byte {
	if b := i / s.per; s.bufs[b] == nil {
		s.bufs[b] = getRaw(min(s.per, s.slots-b*s.per) * s.stride)
	}
	return s.Slot(i)
}

// Slot returns slot i of a buffer already drawn — any slot written
// before, through Draw — and panics on one that is not. The view is
// capped at the slot, so an append cannot run into slot i+1. With the
// draw in a method of its own this one is an index and a reslice, small
// enough to inline into the per-symbol loops that call it (the peeler's
// accumulator updates, the sender's frame views); CI greps the
// compiler's -m output to keep it so.
func (s *Slab) Slot(i int) []byte {
	return s.bufs[i/s.per][i%s.per*s.stride:][:s.stride:s.stride]
}

// Segments yields, in order, the contiguous runs that make up bytes
// [off, off+n) of the slot stream (slot 0 ++ slot 1 ++ …): one run per
// buffer touched. Every slot in the range must have been written.
func (s *Slab) Segments(off, n int) iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		span := s.per * s.stride
		for n > 0 {
			buf := s.bufs[off/span]
			seg := buf[off%span:]
			if len(seg) > n {
				seg = seg[:n]
			}
			if !yield(seg) {
				return
			}
			off += len(seg)
			n -= len(seg)
		}
	}
}

// Take moves the slab out of s — the ownership handoff: the returned
// value owns the buffers, s is left the zero Slab.
func (s *Slab) Take() Slab {
	t := *s
	*s = Slab{}
	return t
}

// Release returns the slab's buffers and its table to the pool. The slab
// has no slots afterwards (Slot panics); Release is idempotent.
func (s *Slab) Release() {
	PutAll(s.bufs)
	putTable(s.bufs)
	*s = Slab{}
}

// Reset is Release that keeps the slots and the buffer table, for a slab
// reused object after object: every slot must be drawn again.
func (s *Slab) Reset() { PutAll(s.bufs) }

// Slab tables come in power-of-two classes of 1 to 1<<maxTableBits views;
// a larger table (an object of more than 4096 buffers, 256 MiB of slots)
// is made and left to the GC.
const maxTableBits = 12

// viewBytes is what one view of a table occupies: a slice header.
const viewBytes = 3 * bits.UintSize / 8

var tables [maxTableBits + 1]lifo[[][]byte]

// getTable returns a table of n nil views, n > 0.
func getTable(n int) [][]byte {
	t := bits.Len(uint(n - 1))
	if t > maxTableBits {
		return make([][]byte, n)
	}
	if v, ok := tables[t].pop(); ok {
		unretain(viewBytes << t)
		return v[:n]
	}
	return make([][]byte, n, 1<<t)
}

// putTable takes back a table from getTable, every view already nil. A
// run with PoisonReleased drops it instead, so that a stale copy of a
// released Slab keeps its nil views and panics at its next Slot rather
// than reading whichever slab draws the table next.
func putTable(v [][]byte) {
	c := cap(v)
	if c == 0 || c&(c-1) != 0 || c > 1<<maxTableBits || poison.Load() {
		return
	}
	tables[bits.Len(uint(c-1))].push(v[:0], classCap, int64(viewBytes*c))
}
