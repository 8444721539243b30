package core

// Streaming transmission schedules: lazy, random-access views of a
// packet order that cost O(1) memory regardless of schedule length.
//
// The paper's transmission models were originally materialised as []int
// permutations — an O(n) allocation per trial, per carousel round, per
// sender object. A Schedule instead captures a *rule* evaluable at any
// position: shuffles are seeded Feistel permutations over [0,n)
// (format-preserving, cycle-walking, as RaptorQ-style fountain
// implementations use), interleaving and proportional merges are
// closed-form arithmetic at position i, and truncation is a lazy prefix
// view. Drawing a schedule allocates nothing; At(i) is O(1); a receiver
// or restarted sender can start mid-order at any position.
//
// Schedule is a closed sum type rather than an interface so schedulers
// return it by value: no boxing, no per-draw heap allocation. Arbitrary
// externally-computed orders still fit through SliceSchedule.

import "fmt"

// schedKind discriminates the streaming schedule shapes.
type schedKind uint8

const (
	kindEmpty      schedKind = iota
	kindSlice                // explicit id list (escape hatch)
	kindParts                // 1–2 sequential/shuffled segments
	kindSubset               // shuffled subset of sources + all parity
	kindRepeat               // t copies of [0,k), shuffled
	kindPropMerge            // Bresenham source/parity proportional merge
	kindInterleave           // round-robin across layout blocks
	kindRounds               // concatenation of sub-schedules
)

// partKind discriminates the segments of a kindParts schedule.
type partKind uint8

const (
	partSeq  partKind = iota // off, off+1, ..., off+n-1
	partPerm                 // off + perm(i) for a seeded permutation of [0,n)
)

// part is one segment of a kindParts schedule. n is the segment length
// (for partPerm it may be a strict prefix of the permutation domain).
type part struct {
	kind partKind
	n    int
	off  int
	p    feistel
}

func (pt *part) at(i int) int {
	if pt.kind == partSeq {
		return pt.off + i
	}
	return pt.off + pt.p.at(i)
}

// atBatch fills dst[j] = pt.at(start+j), batching the permutation walk
// for shuffled segments.
func (pt *part) atBatch(dst []int32, start int) {
	if pt.kind == partSeq {
		for j := range dst {
			dst[j] = int32(pt.off + start + j)
		}
		return
	}
	pt.p.atBatch(dst, start)
	if pt.off != 0 {
		off := int32(pt.off)
		for j := range dst {
			dst[j] += off
		}
	}
}

// Schedule is a lazy transmission order: Len gives the number of
// transmissions and At(i) the packet id sent at position i, in O(1)
// time and memory. The zero value is the empty schedule. Schedules are
// immutable values; copying one is cheap and never shares mutable
// state, so they are safe for concurrent readers.
type Schedule struct {
	kind   schedKind
	length int
	nparts int
	parts  [2]part
	// kindSubset: a = number of sources drawn, b = total sources k;
	// kindRepeat: b = k; kindPropMerge: a = sources, b = parities.
	a, b int
	// kindSlice
	ids []int
	// kindInterleave
	il interleave
	// kindRounds
	rounds   []Schedule
	roundLen int   // >0 when all rounds share one length
	offs     []int // cumulative lengths otherwise
}

// Len returns the number of transmissions in the schedule.
func (s *Schedule) Len() int { return s.length }

// At returns the packet id transmitted at position i, 0 ≤ i < Len().
func (s *Schedule) At(i int) int {
	if i < 0 || i >= s.length {
		panic(fmt.Sprintf("core: schedule position %d outside [0,%d)", i, s.length))
	}
	switch s.kind {
	case kindSlice:
		return s.ids[i]
	case kindParts:
		if p := &s.parts[0]; i < p.n {
			return p.at(i)
		}
		return s.parts[1].at(i - s.parts[0].n)
	case kindSubset:
		// Positions are shuffled by the outer permutation over the
		// drawn multiset: slots < a are the chosen sources (themselves
		// a shuffled prefix of a permutation of [0,b)), the rest are
		// the parity ids b, b+1, ... in slot order.
		j := s.parts[0].p.at(i)
		if j < s.a {
			return s.parts[1].p.at(j)
		}
		return s.b + (j - s.a)
	case kindRepeat:
		return s.parts[0].p.at(i) % s.b
	case kindPropMerge:
		return s.propAt(i)
	case kindInterleave:
		return s.il.at(i)
	case kindRounds:
		r, off := s.roundAt(i)
		return s.rounds[r].At(i - off)
	default:
		panic("core: At on empty schedule")
	}
}

// batchAt fills dst[j] = s.At(pos+j) for the consecutive positions
// pos..pos+len(dst)-1, which must lie inside the schedule. Shapes built
// on Feistel permutations batch the walk (feistel.atBatch's interleaved
// lanes — the reason sequential iteration beats per-position At);
// closed-form shapes fall back to a scalar loop that costs exactly what
// At costs. The ids are byte-identical to At's either way.
func (s *Schedule) batchAt(pos int, dst []int32) {
	if len(dst) == 0 {
		return
	}
	if pos < 0 || pos+len(dst) > s.length {
		panic(fmt.Sprintf("core: schedule batch [%d,%d) outside [0,%d)", pos, pos+len(dst), s.length))
	}
	switch s.kind {
	case kindParts:
		if p0 := &s.parts[0]; pos < p0.n {
			m := p0.n - pos
			if m > len(dst) {
				m = len(dst)
			}
			p0.atBatch(dst[:m], pos)
			dst = dst[m:]
			pos = p0.n
		}
		if len(dst) > 0 {
			s.parts[1].atBatch(dst, pos-s.parts[0].n)
		}
	case kindRepeat:
		s.parts[0].p.atBatch(dst, pos)
		b := int32(s.b)
		for j := range dst {
			dst[j] %= b
		}
	case kindSubset:
		// Batch the outer multiset shuffle; the inner source draw is
		// evaluated per slot (its positions are scattered, not
		// consecutive), exactly as At does.
		s.parts[0].p.atBatch(dst, pos)
		for j, v := range dst {
			if int(v) < s.a {
				dst[j] = int32(s.parts[1].p.at(int(v)))
			} else {
				dst[j] = int32(s.b + int(v) - s.a)
			}
		}
	case kindRounds:
		for len(dst) > 0 {
			r, start := s.roundAt(pos)
			rs := &s.rounds[r]
			m := start + rs.length - pos
			if m > len(dst) {
				m = len(dst)
			}
			rs.batchAt(pos-start, dst[:m])
			dst = dst[m:]
			pos += m
		}
	case kindSlice:
		for j := range dst {
			dst[j] = int32(s.ids[pos+j])
		}
	default:
		// kindPropMerge / kindInterleave are closed-form arithmetic with
		// no walk to batch.
		for j := range dst {
			dst[j] = int32(s.At(pos + j))
		}
	}
}

// DistinctIDs reports whether the schedule provably never transmits the
// same packet id twice. It is conservative: true is a guarantee, false
// means "may repeat". The fleet engine uses it to decide whether
// receivers need a per-id dedup bitmap — permutation-shaped orders
// (tx1–tx6) need none, while carousels and repeat schemes do.
func (s *Schedule) DistinctIDs() bool {
	switch s.kind {
	case kindEmpty, kindSubset, kindPropMerge, kindInterleave:
		// Permutations (or permutation prefixes) by construction.
		return true
	case kindRepeat:
		// A permutation of [0, k·times) reduced mod k: distinct only when
		// the domain is a single copy. For times ≥ 2 even a truncated
		// prefix can repeat (two preimages congruent mod k may land
		// adjacently in the shuffle), so the length proves nothing.
		return s.parts[0].p.n == s.b
	case kindParts:
		// Each segment is itself duplicate-free (a sequence, or a prefix
		// of a permutation); two segments are safe when their id ranges
		// cannot overlap.
		if s.nparts == 1 {
			return true
		}
		lo0, hi0 := s.parts[0].idRange()
		lo1, hi1 := s.parts[1].idRange()
		return hi0 <= lo1 || hi1 <= lo0
	case kindRounds:
		return len(s.rounds) == 1 && s.rounds[0].DistinctIDs()
	case kindSlice:
		seen := make(map[int]struct{}, len(s.ids))
		for _, id := range s.ids[:s.length] {
			if _, dup := seen[id]; dup {
				return false
			}
			seen[id] = struct{}{}
		}
		return true
	default:
		return false
	}
}

// idRange returns the half-open id interval a segment's outputs lie in.
// A permutation segment may emit any value of its full Feistel domain
// prefix [off, off+p.n); a sequence exactly [off, off+n).
func (pt *part) idRange() (lo, hi int) {
	if pt.kind == partSeq {
		return pt.off, pt.off + pt.n
	}
	return pt.off, pt.off + pt.p.n
}

// roundAt locates the sub-schedule covering position i and the offset
// where it starts.
func (s *Schedule) roundAt(i int) (round, start int) {
	if s.roundLen > 0 {
		r := i / s.roundLen
		return r, r * s.roundLen
	}
	// Binary search the cumulative offsets: offs[r] is where round r
	// starts; find the last offs[r] <= i.
	lo, hi := 0, len(s.offs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.offs[mid] <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, s.offs[lo]
}

// propAt evaluates the proportional source/parity merge at position i:
// the closed form of the largest-remainder (Bresenham) walk that emits
// source packet j as soon as (j+1)·parities ≤ (emitted parities+1)·sources.
// Source ids are 0..a-1, parity ids a..a+b-1.
func (s *Schedule) propAt(i int) int {
	ai := propCount(i, s.a, s.b)
	if ai > propCount(i-1, s.a, s.b) {
		return ai - 1 // position i emits source number ai-1
	}
	return s.a + (i - ai) // parity number i-ai
}

// propCount returns how many source packets the Bresenham walk over
// (na sources, nb parities) emits in positions [0, i]. Derived by
// inverting the walk: source j lands at position ceil((j·(na+nb)+nb)/na)-1,
// so the count at position i is #{j ≥ 0 : j·(na+nb)+nb ≤ (i+1)·na}.
func propCount(i, na, nb int) int {
	v := (i+1)*na - nb
	if v < 0 {
		return 0
	}
	c := v/(na+nb) + 1
	if c > na {
		c = na
	}
	return c
}

// Truncate returns a prefix view of the schedule: the first n
// transmissions. n <= 0 or n >= Len() returns the schedule unchanged —
// the "send everything" convention of the paper's n_sent optimisation.
// Truncation is lazy: no id is computed or stored.
func (s Schedule) Truncate(n int) Schedule {
	if n > 0 && n < s.length {
		s.length = n
	}
	return s
}

// Cursor returns an iterator positioned at the start of the schedule.
// The cursor embeds its own copy of the schedule value (schedules are
// immutable and copy cheaply), so it stays valid however the original
// moves — and taking one never forces the schedule to the heap.
func (s *Schedule) Cursor() Cursor { return Cursor{s: *s} }

// AppendTo appends every id of the schedule, in order, to dst and
// returns it — the bridge from streaming schedules back to the
// materialised []int world of tests and goldens.
func (s *Schedule) AppendTo(dst []int) []int {
	for i := 0; i < s.length; i++ {
		dst = append(dst, s.At(i))
	}
	return dst
}

// cursorBatch is the Cursor's ring size: a multiple of feistelLanes so
// refills run whole interleaved batches, large enough to amortise the
// refill dispatch, small enough that the Cursor stays a cheap value.
const cursorBatch = 64

// Cursor walks a Schedule sequentially. It is a value type: copying it
// forks the iteration state, which is how a carousel sender resumes a
// round from an arbitrary position for free (the buffered ids copy with
// it). Sequential iteration draws ids through batchAt in cursorBatch
// chunks — for permutation-backed schedules that is several times
// cheaper per id than calling At in a loop, with zero allocations.
//
// Declare the cursor before the loop ("cur := s.Cursor(); for { ... }"),
// never as a three-clause loop variable: Go's per-iteration loop
// variable semantics would copy the whole buffered cursor in and out on
// every Next, costing more than the ids themselves.
type Cursor struct {
	s      Schedule
	base   int // schedule position of buf[0]
	lo, hi int // valid window of buf; buf[lo] is the next id out
	buf    [cursorBatch]int32
}

// Next returns the next packet id, or ok=false when the schedule is
// exhausted. The buffered fast path is small enough to inline into the
// caller's loop.
func (c *Cursor) Next() (int, bool) {
	if c.lo == c.hi {
		return c.refill()
	}
	id := c.buf[c.lo]
	c.lo++
	return int(id), true
}

// refill draws the next batch of ids and consumes the first — the slow
// path of Next, kept out of line so Next inlines.
func (c *Cursor) refill() (id int, ok bool) {
	pos := c.base + c.hi
	m := c.s.length - pos
	if m <= 0 {
		return 0, false
	}
	if m > cursorBatch {
		m = cursorBatch
	}
	c.s.batchAt(pos, c.buf[:m])
	c.base = pos
	c.lo, c.hi = 1, m
	return int(c.buf[0]), true
}

// Pos returns the position of the next id Next would return.
func (c *Cursor) Pos() int { return c.base + c.lo }

// Seek repositions the cursor: random access is O(1), so seeking —
// e.g. a sender resuming mid-round at position p — costs nothing
// beyond dropping the buffered ids.
func (c *Cursor) Seek(pos int) {
	if pos < 0 || pos > c.s.length {
		panic(fmt.Sprintf("core: cursor seek to %d outside [0,%d]", pos, c.s.length))
	}
	c.base = pos
	c.lo, c.hi = 0, 0
}

// EmptySchedule returns the schedule with no transmissions.
func EmptySchedule() Schedule { return Schedule{} }

// SliceSchedule wraps an explicit id list as a Schedule — the bridge
// for externally computed orders (tests, trace replays, custom
// schedulers). The schedule aliases ids; do not mutate it afterwards.
func SliceSchedule(ids []int) Schedule {
	return Schedule{kind: kindSlice, length: len(ids), ids: ids}
}

// SequenceSchedule is the order start, start+1, ..., start+n-1.
func SequenceSchedule(start, n int) Schedule {
	if n <= 0 {
		return EmptySchedule()
	}
	s := Schedule{kind: kindParts, length: n, nparts: 1}
	s.parts[0] = part{kind: partSeq, n: n, off: start}
	return s
}

// ShuffleSchedule is a seeded pseudorandom permutation of
// offset..offset+n-1: a Feistel cycle-walking bijection on [0,n), so
// any position is evaluable in O(1) without materialising the order.
func ShuffleSchedule(offset, n int, seed uint64) Schedule {
	return TakeShuffleSchedule(offset, n, n, seed)
}

// TakeShuffleSchedule is the first take elements of a seeded
// pseudorandom permutation of offset..offset+n-1 — a uniform random
// subset, in random order, evaluated lazily.
func TakeShuffleSchedule(offset, n, take int, seed uint64) Schedule {
	if take < 0 || take > n {
		panic(fmt.Sprintf("core: shuffle prefix %d outside [0,%d]", take, n))
	}
	if take == 0 {
		return EmptySchedule()
	}
	s := Schedule{kind: kindParts, length: take, nparts: 1}
	s.parts[0] = part{kind: partPerm, n: take, off: offset, p: newFeistel(n, seed)}
	return s
}

// ConcatSchedules is a followed by b. Schedules of at most one segment
// each (sequences, shuffles, shuffle prefixes, empty) concatenate into
// a single allocation-free value; anything else falls back to a
// RoundsSchedule, which allocates a two-entry slice.
func ConcatSchedules(a, b Schedule) Schedule {
	if a.length == 0 {
		return b
	}
	if b.length == 0 {
		return a
	}
	simple := func(s *Schedule) bool { return s.kind == kindParts && s.nparts == 1 }
	if simple(&a) && simple(&b) {
		s := Schedule{kind: kindParts, length: a.length + b.length, nparts: 2}
		s.parts[0] = a.parts[0]
		s.parts[1] = b.parts[0]
		return s
	}
	return RoundsSchedule([]Schedule{a, b})
}

// SubsetShuffleSchedule is the paper's Tx_model_6 order as a streaming
// rule: draw nSrc of the k source packets uniformly (a prefix of a
// seeded permutation of [0,k)), add all parity packets k..k+parity-1,
// and shuffle the combined multiset with a second seeded permutation.
func SubsetShuffleSchedule(k, nSrc, parity int, srcSeed, mixSeed uint64) Schedule {
	if nSrc < 0 || nSrc > k {
		panic(fmt.Sprintf("core: subset of %d sources outside [0,%d]", nSrc, k))
	}
	m := nSrc + parity
	if m == 0 {
		return EmptySchedule()
	}
	s := Schedule{kind: kindSubset, length: m, a: nSrc, b: k}
	s.parts[0].p = newFeistel(m, mixSeed)
	s.parts[1].p = newFeistel(k, srcSeed)
	return s
}

// RepeatSchedule sends each of the source packets 0..k-1 exactly times
// times, the whole sequence shuffled: position i maps through a seeded
// permutation of [0, k·times) reduced mod k, so every id appears
// exactly times times without materialising the k·times-entry order.
func RepeatSchedule(k, times int, seed uint64) Schedule {
	if k <= 0 || times <= 0 {
		return EmptySchedule()
	}
	s := Schedule{kind: kindRepeat, length: k * times, b: k}
	s.parts[0].p = newFeistel(k*times, seed)
	return s
}

// ProportionalMergeSchedule interleaves the sequential source stream
// 0..sources-1 with the sequential parity stream sources..sources+
// parities-1 so every prefix matches the global source:parity
// proportion as closely as possible (a Bresenham line between the two
// stream counts), evaluated in closed form at any position.
func ProportionalMergeSchedule(sources, parities int) Schedule {
	// One-sided merges degenerate to the surviving sequential stream
	// (the closed form below assumes at least one packet of each kind).
	if parities == 0 {
		return SequenceSchedule(0, sources)
	}
	if sources == 0 {
		return SequenceSchedule(0, parities)
	}
	return Schedule{kind: kindPropMerge, length: sources + parities, a: sources, b: parities}
}

// InterleaveSchedule is the multi-block interleave of the paper's
// Tx_model_5: one in-block symbol per block per round — all the first
// symbols, then all the second symbols, and so on, blocks in layout
// order, exhausted blocks dropping out. For equal blocks, or longer
// blocks leading shorter ones (an even split's shape), every position
// is closed-form arithmetic; other layouts — a third block length, as
// when an RS object's source and parity remainders differ — fall back
// to a materialised order.
func InterleaveSchedule(l Layout) Schedule {
	il, ok := newInterleave(l)
	if !ok {
		return SliceSchedule(materializeInterleave(l))
	}
	return Schedule{kind: kindInterleave, length: l.N, il: il}
}

// RoundsSchedule concatenates sub-schedules — the carousel shape: round
// r's order follows round r-1's. It stores one Schedule value per round
// (the only per-round state a carousel needs), so memory is O(rounds),
// not O(rounds × n).
func RoundsSchedule(rounds []Schedule) Schedule {
	s := Schedule{kind: kindRounds, rounds: rounds}
	uniform := true
	for i := range rounds {
		s.length += rounds[i].length
		if rounds[i].length != rounds[0].length {
			uniform = false
		}
	}
	if s.length == 0 {
		return EmptySchedule()
	}
	if uniform {
		s.roundLen = rounds[0].length
		return s
	}
	s.offs = make([]int, len(rounds))
	off := 0
	for i := range rounds {
		s.offs[i] = off
		off += rounds[i].length
	}
	return s
}

// interleave is the closed-form geometry of a block interleave: nBig
// leading blocks of bigLen symbols followed by blocks of smallLen
// symbols. Rounds [0, smallLen) emit one symbol from every block;
// rounds [smallLen, bigLen) emit only from the first nBig.
type interleave struct {
	blocks           []Block
	nBig             int
	bigLen, smallLen int
}

// newInterleave derives the two-level geometry, refusing layouts whose
// block lengths are not "bigLen × nBig then smallLen × rest".
func newInterleave(l Layout) (interleave, bool) {
	il := interleave{blocks: l.Blocks}
	if len(l.Blocks) == 0 {
		return il, false
	}
	il.bigLen = len(l.Blocks[0].Source) + len(l.Blocks[0].Parity)
	il.smallLen = il.bigLen
	il.nBig = len(l.Blocks)
	for i, b := range l.Blocks {
		n := len(b.Source) + len(b.Parity)
		switch {
		case n == il.bigLen && il.nBig == len(l.Blocks):
			// still in the leading run of big blocks
		case n == il.bigLen && il.nBig < len(l.Blocks):
			return il, false // big block after a smaller one
		case n < il.bigLen && il.smallLen == il.bigLen:
			il.nBig = i
			il.smallLen = n
		case n == il.smallLen:
			// continuing the small run
		default:
			return il, false // a third length, or growing again
		}
	}
	return il, true
}

func (il *interleave) at(i int) int {
	nb := len(il.blocks)
	split := il.smallLen * nb // positions covered by the all-blocks rounds
	var round, blk int
	if i < split {
		round, blk = i/nb, i%nb
	} else {
		round, blk = il.smallLen+(i-split)/il.nBig, (i-split)%il.nBig
	}
	b := &il.blocks[blk]
	if round < len(b.Source) {
		return b.Source[round]
	}
	return b.Parity[round-len(b.Source)]
}

// materializeInterleave is the reference block interleave, used only
// for irregular layouts the closed form refuses (and by tests as the
// ground truth).
func materializeInterleave(l Layout) []int {
	maxLen := 0
	for _, b := range l.Blocks {
		if n := len(b.Source) + len(b.Parity); n > maxLen {
			maxLen = n
		}
	}
	out := make([]int, 0, l.N)
	for round := 0; round < maxLen; round++ {
		for _, b := range l.Blocks {
			switch {
			case round < len(b.Source):
				out = append(out, b.Source[round])
			case round < len(b.Source)+len(b.Parity):
				out = append(out, b.Parity[round-len(b.Source)])
			}
		}
	}
	return out
}
