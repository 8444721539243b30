package symbol

import "iter"

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
// costs the buffer table and one buffer, never slots·stride bytes. They
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

// NewSlab returns a slab of slots slots of stride bytes each. Only the
// buffer table is allocated.
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
		s.bufs = make([][]byte, (slots+per-1)/per)
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

// Release returns the slab's buffers to the pool. The slab has no slots
// afterwards (Slot panics); Release is idempotent.
func (s *Slab) Release() {
	PutAll(s.bufs)
	*s = Slab{}
}

// Reset is Release that keeps the slots and the buffer table, for a slab
// reused object after object: every slot must be drawn again.
func (s *Slab) Reset() { PutAll(s.bufs) }
