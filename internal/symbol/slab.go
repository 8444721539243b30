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
// Buffers are drawn as their first slot is asked for, so a slab's memory
// follows what was actually written: a header announcing a huge object
// costs the buffer table and one buffer, never slots·stride bytes. They
// come from the pool unzeroed — a slot holds stale bytes until its owner
// writes it, and owners write every byte they later read or send.
//
// The zero Slab has no slots. A Slab is owned by one holder at a time.
// Slot draws a buffer on first use, so concurrent calls are safe only
// once every slot has been written (a finished slab is read-only: that
// is how several senders share one object). Release returns every buffer
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

// Slot returns slot i, drawing its buffer from the pool on first use. The
// view is capped at the slot, so an append cannot run into slot i+1.
func (s *Slab) Slot(i int) []byte {
	b := i / s.per
	buf := s.bufs[b]
	if buf == nil {
		n := s.slots - b*s.per
		if n > s.per {
			n = s.per
		}
		buf = getRaw(n * s.stride)
		s.bufs[b] = buf
	}
	off := (i - b*s.per) * s.stride
	return buf[off : off+s.stride : off+s.stride]
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
