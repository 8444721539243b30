// Package ldpc implements the three large-block Low Density Generator
// Matrix codes studied in the reproduced paper: plain LDGM, LDGM Staircase
// and LDGM Triangle.
//
// All three share the same left side of the parity-check matrix H: each of
// the k source columns carries a fixed small number of "1"s (left degree 3
// in the paper), spread over the n-k check rows so that row weights stay
// balanced. They differ in the right (parity) side:
//
//   - plain LDGM: the identity I_{n-k} — every parity symbol appears in
//     exactly one equation;
//   - LDGM Staircase: identity plus the sub-diagonal, chaining each parity
//     symbol to the previous one;
//   - LDGM Triangle: the staircase plus extra entries filling the triangle
//     under the diagonal, adding a progressive dependency between check
//     nodes. The paper refers to "an appropriate rule" without reproducing
//     it; we add one pseudo-random sub-diagonal entry per check row, which
//     reproduces the documented behaviour (denser rows, slightly slower
//     encoding, better inefficiency except at very low loss). See
//     DESIGN.md, "Substitutions".
//
// Encoding is sequential XOR of payloads (each equation defines its
// diagonal parity symbol in terms of already-computed symbols). Decoding is
// the paper's iterative algorithm: a peeling decoder fed one packet at a
// time, solving any equation left with a single unknown and propagating
// recursively. LDGM codes are not MDS, so the decoder may need
// inef_ratio*k > k packets; measuring that overhead is the whole point of
// the study.
//
// Code and Decoder keep all of this in flat index arrays: the graph by
// equation in compressed sparse row form and by variable at a fixed
// stride of four equations (overflow runs for the few variables in more),
// eight bytes of peeling state per equation, one bit per variable. The
// peeler's solve queue is a stack of m+2 entries, pushed without a branch
// and taken once per decoder; the variables it makes known are logged at
// its far end. A payload decoder goes back to its code when it closes,
// tables and all, and the code's next one is that decoder, reset. The same
// Decoder type runs the simulations (structural: IDs only, reset between
// trials, fed a batch of arrivals per call) and the cast datapath
// (payload mode); in payload mode it adds a slab of k source slots, a
// slab of n-k parity slots and a log of the variables equations solved,
// nothing per symbol. The peel stays structural: bytes are only moved
// once, when the object completes, to solve each logged variable from
// its equation.
package ldpc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"fecperf/internal/core"
	"fecperf/internal/gf256"
	"fecperf/internal/symbol"
)

// Variant selects the structure of the right-hand side of H.
type Variant int

const (
	// Plain is the textbook LDGM code: right side is the identity.
	Plain Variant = iota
	// Staircase replaces the identity with a staircase (bidiagonal) matrix.
	Staircase
	// Triangle fills the area under the staircase diagonal.
	Triangle
)

// String returns the conventional code name.
func (v Variant) String() string {
	switch v {
	case Plain:
		return "ldgm"
	case Staircase:
		return "ldgm-staircase"
	case Triangle:
		return "ldgm-triangle"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Params configures a Code.
type Params struct {
	// K is the number of source packets; N the total number of packets.
	K, N int
	// Variant selects plain LDGM, Staircase or Triangle.
	Variant Variant
	// LeftDegree is the number of equations each source symbol appears in.
	// Defaults to 3, the value used throughout the paper.
	LeftDegree int
	// Seed makes the pseudo-random H construction reproducible. The same
	// seed must be used by sender and receiver (in FLUTE it would travel in
	// the FEC object transmission information).
	Seed int64
	// TriangleDensity is the expected number of extra sub-diagonal entries
	// per check row for the Triangle variant. The default (0 means 1.0)
	// adds one entry per row; other values exist for ablation studies.
	TriangleDensity float64
	// Gauss makes NewReceiver the hybrid receiver: peeling with a
	// Gaussian-elimination fallback, which decodes every erasure pattern
	// maximum-likelihood decoding does. It leaves the graph as it is, and
	// payload decoders always peel.
	Gauss bool
}

// Code is an immutable LDGM code instance: the parity-check matrix
// indexed once by equation, in compressed sparse row form, and once by
// variable, at a fixed stride; plus the derived layout. Both indexes are
// flat int32 arrays — no slice header per row — so walking the graph
// touches index bytes only. Safe for concurrent use.
type Code struct {
	params  Params
	k, n, m int // m = n-k check equations
	layout  core.Layout

	// Equation i's variable (packet) IDs, the diagonal parity k+i
	// included, are rowIdx[rowOff[i]:rowOff[i+1]].
	rowOff, rowIdx []int32
	// varEq is the variable→equation index at a fixed stride: variable
	// v's equations, in increasing order, fill varEq[4v:4v+4], padded with
	// -1, so one load finds them. A variable in more than four equations
	// (an early Triangle parity; a source under a wide left degree or a
	// patched row) has varEq[4v+3] = -2-o instead, and its whole list is
	// an overflow run from varEq[o], past the n·4 slots, ended by -1.
	varEq []int32
	// eqInit is a fresh decoder's equation table: every variable unknown.
	eqInit []equation
	// decoders holds the payload decoders Close gave back, with every
	// table sized for this code — known bitset, equation table, solve
	// stack and log — for the next object's NewDecoder to reset.
	decoders symbol.FreeList[Decoder]
}

// eqSlots is the variable index's stride: a source under the default
// left degree plus a patched row, or a Triangle parity in up to four
// equations, fits.
const eqSlots = 4

// New builds the code. The construction is deterministic in Params.
func New(p Params) (*Code, error) {
	if p.K <= 0 {
		return nil, fmt.Errorf("ldpc: k must be positive, got %d", p.K)
	}
	if p.N <= p.K {
		return nil, fmt.Errorf("ldpc: need n > k, got k=%d n=%d", p.K, p.N)
	}
	if p.LeftDegree == 0 {
		p.LeftDegree = 3
	}
	if p.LeftDegree < 1 {
		return nil, fmt.Errorf("ldpc: left degree must be >= 1, got %d", p.LeftDegree)
	}
	if p.TriangleDensity == 0 {
		p.TriangleDensity = 1.0
	}
	if p.TriangleDensity < 0 {
		return nil, fmt.Errorf("ldpc: negative triangle density %g", p.TriangleDensity)
	}
	m := p.N - p.K
	if p.LeftDegree > m {
		p.LeftDegree = m
	}
	c := &Code{params: p, k: p.K, n: p.N, m: m}
	c.build(rand.New(rand.NewSource(p.Seed)))
	c.buildIndex()
	c.layout = singleBlockLayout(p.K, p.N)
	return c, nil
}

// build lays H out in its row CSR in two passes. The first makes every
// random draw, in the construction's order — the left side's rows column
// by column (pickLeft), a patch for each row left without a source, then
// the Triangle's extra parity entries row by row — and counts each row's
// entries. The second writes the rows straight into rowIdx: sources in
// column order, the patch, then the parity side, diagonal last.
func (c *Code) build(rng *rand.Rand) {
	k, m := c.k, c.m
	picks := c.pickLeft(rng)
	c.rowOff = make([]int32, m+1)
	size := c.rowOff[1:] // row i's entries, until the prefix sum below
	for _, r := range picks {
		size[r]++
	}
	// When m > deg*k some rows legitimately receive no source symbol; such
	// an equation would relate parity symbols only and contribute nothing
	// to recovery, so patch it with one extra entry. The row is empty, so
	// any column is new to it.
	var patches []int32
	for i := range size {
		if size[i] == 0 {
			if patches == nil {
				patches = make([]int32, 0, m-i)
			}
			patches = append(patches, int32(rng.Intn(k)))
			size[i] = 1
		}
	}
	extras := c.drawTriangle(rng, size)
	for i := range m {
		switch {
		case c.params.Variant == Plain, i == 0:
			size[i]++ // the diagonal
		default:
			size[i] += 2 // the sub-diagonal and the diagonal
		}
		c.rowOff[i+1] += c.rowOff[i]
	}

	c.rowIdx = make([]int32, c.rowOff[m])
	next := slices.Clone(c.rowOff[:m]) // where row i's next source goes
	for t, r := range picks {
		c.rowIdx[next[r]] = int32(t / c.params.LeftDegree)
		next[r]++
	}
	for i, at := range next {
		if at == c.rowOff[i] {
			c.rowIdx[at] = patches[0]
			patches = patches[1:]
			at++
		}
		end := c.rowOff[i+1] - 1
		if c.params.Variant != Plain && i > 0 {
			c.rowIdx[at] = int32(k + i - 1)
			at++
		}
		extras = extras[copy(c.rowIdx[at:end], extras):]
		c.rowIdx[end] = int32(k + i)
	}
}

// pickLeft deals the H1 part: LeftDegree distinct rows per source column,
// the t-th row of column col at picks[col·deg+t], with check-row weights
// kept exactly balanced (every row receives either floor(deg*k/m) or
// ceil(deg*k/m) source entries). The balance matters beyond aesthetics:
// with ratio 2.5 each row carries exactly two source symbols, so no
// equation can be solved before at least one source packet arrives — the
// paper's observation that LDGM-* codes are not usable as purely
// non-systematic codes (Section 4.5) depends on it.
func (c *Code) pickLeft(rng *rand.Rand) []int32 {
	deg := c.params.LeftDegree
	// Deal row slots: row r appears ceil or floor of deg*k/m times.
	slots := make([]int32, c.k*deg)
	for t, r := 0, int32(0); t < len(slots); t++ { // slots[t] = t mod m
		slots[t] = r
		if r++; int(r) == c.m {
			r = 0
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })

	picks := make([]int32, c.k*deg)
	pos := 0
	for col := 0; col < c.k; col++ {
		chosen := picks[col*deg : col*deg] // the rows of the current column
		for t := 0; t < deg; t++ {
			// Take the next slot whose row is not already used by this
			// column, swapping it to the front so overall balance holds.
			idx := pos
			for idx < len(slots) && slices.Contains(chosen, slots[idx]) {
				idx++
			}
			var row int32
			if idx < len(slots) {
				slots[pos], slots[idx] = slots[idx], slots[pos]
				row = slots[pos]
				pos++
			} else {
				// The remaining slots all collide with this column (only
				// possible in the last few columns); fall back to any
				// distinct row at the cost of a ±1 imbalance.
				row = int32(rng.Intn(c.m))
				for slices.Contains(chosen, row) {
					row = int32(rng.Intn(c.m))
				}
			}
			chosen = append(chosen, row)
		}
	}
	return picks
}

// drawTriangle draws the Triangle variant's extra parity entries, row by
// row, and adds each row's count to size; it returns them in row order
// (nil for the other variants). Each check row i>=2 references
// TriangleDensity (in expectation) uniformly chosen earlier parity
// columns besides its staircase, creating the paper's "progressive
// dependency between check nodes" while keeping rows sparse. One extra
// entry per row (the default) reproduces the paper's observed behaviour:
// Triangle beats Staircase at medium/high loss and under fully random
// scheduling, while Staircase stays ahead at very low loss. Denser
// fillings degrade iterative decoding quickly (see the ablation bench).
func (c *Code) drawTriangle(rng *rand.Rand, size []int32) []int32 {
	if c.params.Variant != Triangle {
		return nil
	}
	dens := c.params.TriangleDensity
	extras := make([]int32, 0, c.m)
	for i := 2; i < c.m; i++ {
		cnt := int(dens)
		if frac := dens - float64(cnt); frac > 0 && rng.Float64() < frac {
			cnt++
		}
		if max := i - 1; cnt > max {
			cnt = max
		}
		row := len(extras) // a repeated draw adds nothing
		for e := 0; e < cnt; e++ {
			if j := int32(c.k + rng.Intn(i-1)); !slices.Contains(extras[row:], j) {
				extras = append(extras, j)
			}
		}
		size[i] += int32(len(extras) - row)
	}
	return extras
}

// buildIndex derives the fixed-stride variable index and the initial
// equation table from the row CSR.
func (c *Code) buildIndex() {
	c.eqInit = make([]equation, c.m)
	deg := make([]int32, c.n)
	for i := range c.eqInit {
		row := c.EquationVars(i)
		e := &c.eqInit[i]
		e.unknown = int32(len(row))
		for _, v := range row {
			deg[v]++
			e.xorID ^= v
		}
	}

	// next[v] is where variable v's next equation goes: its slots, or
	// its overflow run past the n·eqSlots slots.
	next := deg
	size := int32(eqSlots * c.n)
	for v, dv := range deg {
		next[v] = int32(eqSlots * v)
		if dv > eqSlots {
			next[v] = size
			size += dv + 1
		}
	}
	c.varEq = slices.Repeat([]int32{-1}, int(size))
	for v, at := range next {
		if at >= eqSlots*int32(c.n) {
			c.varEq[eqSlots*v+eqSlots-1] = -2 - at
		}
	}
	for i := range c.eqInit {
		for _, v := range c.EquationVars(i) {
			c.varEq[next[v]] = int32(i)
			next[v]++
		}
	}
}

// equations returns where the variable index varEq holds variable v's
// equations: varEq[lo:hi] is its slots, or its overflow run onwards, and
// the list ends at the first -1 in it or at hi.
func equations(varEq []int32, v int32) (lo, hi int) {
	lo, hi = eqSlots*int(v), eqSlots*int(v)+eqSlots
	if x := varEq[hi-1]; x < -1 {
		lo, hi = int(-2-x), len(varEq)
	}
	return lo, hi
}

func singleBlockLayout(k, n int) core.Layout {
	src := make([]int, k)
	for i := range src {
		src[i] = i
	}
	par := make([]int, n-k)
	for i := range par {
		par[i] = k + i
	}
	return core.Layout{K: k, N: n, Blocks: []core.Block{{Source: src, Parity: par}}}
}

// Name implements core.Code.
func (c *Code) Name() string {
	if c.params.Gauss {
		return c.params.Variant.String() + "+gauss"
	}
	return c.params.Variant.String()
}

// Layout implements core.Code.
func (c *Code) Layout() core.Layout { return c.layout }

// Params returns the construction parameters.
func (c *Code) Params() Params { return c.params }

// NumEquations returns the number of check equations (n-k).
func (c *Code) NumEquations() int { return c.m }

// EquationVars returns the variable IDs of equation i (shared slice; do not
// modify). Exposed for tests and for the Gaussian reference decoder.
func (c *Code) EquationVars(i int) []int32 { return c.rowIdx[c.rowOff[i]:c.rowOff[i+1]] }

// RowWeight returns the number of variables in equation i.
func (c *Code) RowWeight(i int) int { return int(c.rowOff[i+1] - c.rowOff[i]) }

// EncodeInto computes the n-k parity payloads from the k source payloads
// into caller-supplied buffers, overwriting every byte of them. Equations
// are processed in order; with Staircase and Triangle each diagonal parity
// depends only on source symbols and earlier parities, so a single pass
// suffices. Each parity is one gf256.XorSum of its equation's other
// members. All payloads must share one length.
func (c *Code) EncodeInto(src, parity [][]byte) error {
	if len(src) != c.k {
		return fmt.Errorf("ldpc: expected %d source payloads, got %d", c.k, len(src))
	}
	if len(parity) != c.m {
		return fmt.Errorf("ldpc: expected %d parity buffers, got %d", c.m, len(parity))
	}
	symLen := len(src[0])
	for i, s := range src {
		if len(s) != symLen {
			return fmt.Errorf("ldpc: payload %d has length %d, want %d", i, len(s), symLen)
		}
	}
	for i, p := range parity {
		if len(p) != symLen {
			return fmt.Errorf("ldpc: parity buffer %d has length %d, want %d", i, len(p), symLen)
		}
	}
	var buf [termsOnStack][]byte
	for i, p := range parity {
		terms := buf[:0]
		for _, v := range c.EquationVars(i) {
			switch {
			case int(v) < c.k:
				terms = append(terms, src[v])
			case int(v) != c.k+i: // not the symbol being defined
				terms = append(terms, parity[int(v)-c.k])
			}
		}
		gf256.XorSum(p, terms)
	}
	return nil
}

// termsOnStack is how many members of an equation EncodeInto and the
// payload solve gather without a heap allocation: a staircase row of the
// default left degree has eight, a wider one spills.
const termsOnStack = 16

// Encode implements core.Codec: EncodeInto with one pooled buffer per
// parity symbol, owned by the caller.
func (c *Code) Encode(src [][]byte) ([][]byte, error) { return core.EncodePooled(c, src) }

// NewReceiver implements core.Code: a structural peeling decoder (no
// payloads), the state the grid simulations use, or the hybrid receiver
// when Params.Gauss is set.
func (c *Code) NewReceiver() core.Receiver {
	if c.params.Gauss {
		return &mlReceiver{Decoder: c.newDecoder(0)}
	}
	return c.newDecoder(0)
}

// NewPayloadDecoder returns a peeling decoder that also reconstructs symbol
// payloads of the given length. Feed it with ReceivePayload.
func (c *Code) NewPayloadDecoder(symLen int) *Decoder {
	if symLen <= 0 {
		panic(fmt.Sprintf("ldpc: symLen must be positive, got %d", symLen))
	}
	return c.newDecoder(symLen)
}

// NewDecoder implements core.Codec (the error-returning form of
// NewPayloadDecoder).
func (c *Code) NewDecoder(symLen int) (core.PayloadDecoder, error) {
	if symLen <= 0 {
		return nil, fmt.Errorf("ldpc: symbol length must be positive, got %d", symLen)
	}
	return c.newDecoder(symLen), nil
}

// Decoder is the incremental iterative decoder of Section 2.3.2: each
// arriving packet makes its variable known in each of its equations; any
// equation left with a single unknown yields that variable, which is
// propagated recursively. The peel is structural — it counts unknowns
// and XORs IDs — so the decoder keeps one known bit per variable and
// eight bytes per equation. The set of known variables after an arrival
// is the peeling closure of the received set, whatever the arrival
// order. A payload decoder adds the bytes (see payloads).
type Decoder struct {
	code       *Code
	symLen     int      // 0 = structural mode
	known      []uint64 // bitset over variable IDs
	eqs        []equation
	srcKnown   int
	knownCount int
	stack      []solve   // the solve queue and log: m+2 entries, made on first use
	pay        *payloads // nil in structural mode
}

// equation is one check equation's peeling state. It stays at 8 bytes:
// Reset copies this table once per simulated trial. An equation reaches
// one unknown once, and that unknown is then solved, so after propagate
// an equation is solved (unknown == 0) or has two or more unknowns.
type equation struct {
	unknown int32 // variables not yet known
	xorID   int32 // XOR of their IDs: the variable itself when unknown == 1
}

// payloads is the byte-carrying half of a Decoder, absent from the
// structural decoders: two slabs and a log, no per-symbol table. A
// received symbol is copied once, to its slot — a source to its final
// position in src, a parity to its slot in par — and the peel goes on
// without touching bytes. The variables equations solve are appended to
// the log with their solving equation, at most one per equation. When
// the object completes, one pass (solve) writes each logged variable as
// the XOR sum of its equation's other members, in solve order, so every
// member is in its slot by then: a rebuilt symbol costs one kernel call,
// however many equations it appears in.
type payloads struct {
	src, par symbol.Slab
	log      []solve // solved variables in solve order: up to m entries
	solved   int     // log[:solved] are in their slots
	closed   bool    // Close ran: the decoder went back to its code
}

// newDecoder returns a structural decoder (symLen 0) or a payload decoder:
// one Close gave back, reset, where the code has one, so only its slab
// tables are new.
func (c *Code) newDecoder(symLen int) *Decoder {
	var d *Decoder
	if symLen > 0 {
		d = c.decoders.Get()
	}
	if d == nil {
		d = &Decoder{code: c, known: make([]uint64, (c.n+63)/64), eqs: make([]equation, c.m)}
	}
	d.symLen = symLen
	d.reset()
	if symLen > 0 {
		if d.pay == nil {
			d.pay = new(payloads)
		}
		*d.pay = payloads{src: symbol.NewSlab(c.k, symLen), par: symbol.NewSlab(c.m, symLen), log: d.pay.log[:0]}
	}
	return d
}

func has(set []uint64, i int32) bool { return set[i>>6]&(1<<(i&63)) != 0 }

func add(set []uint64, i int32) { set[i>>6] |= 1 << (i & 63) }

// Reset implements core.Receiver: every variable unknown, every equation
// whole. It panics on a payload decoder, whose slabs have owners.
func (d *Decoder) Reset() {
	if d.pay != nil {
		panic("ldpc: Reset on a payload decoder")
	}
	d.reset()
}

func (d *Decoder) reset() {
	clear(d.known)
	copy(d.eqs, d.code.eqInit)
	d.srcKnown, d.knownCount = 0, 0 // the stack is empty: propagate drains it
}

// Receive implements core.Receiver (structural mode): a batch of one. It
// panics on a payload decoder, whose variables need their bytes: use
// ReceivePayload.
func (d *Decoder) Receive(id int) bool {
	if d.pay != nil {
		panic("ldpc: Receive on a payload decoder")
	}
	if uint(id) >= uint(d.code.n) {
		d.outside(id)
	}
	_, done, _ := d.receive([]int32{int32(id)}, 1, nil)
	return done
}

// ReceiveBatch implements core.Receiver (structural mode). It panics on
// a payload decoder.
func (d *Decoder) ReceiveBatch(ids []int32, arrived uint64) (consumed int, decoded bool, peak int) {
	if d.pay != nil {
		panic("ldpc: ReceiveBatch on a payload decoder")
	}
	return d.receive(ids, arrived, nil)
}

// ReceivePayload delivers a packet with its payload, which is only read
// during the call: a new symbol is copied to its slot. It returns true
// once all k source payloads are recovered.
func (d *Decoder) ReceivePayload(id int, payload []byte) bool {
	if d.pay == nil {
		panic("ldpc: ReceivePayload on a structural decoder")
	}
	if len(payload) != d.symLen {
		panic(fmt.Sprintf("ldpc: payload length %d, want %d", len(payload), d.symLen))
	}
	if uint(id) >= uint(d.code.n) {
		d.outside(id)
	}
	_, done, _ := d.receive([]int32{int32(id)}, 1, payload)
	return done
}

func (d *Decoder) outside(id int) {
	panic(fmt.Sprintf("ldpc: packet id %d outside [0,%d)", id, d.code.n))
}

// receive is the receive path of both modes, with ReceiveBatch's
// contract; val is the payload of a batch of one. A new variable, before
// the object is decoded, is peeled from. BufferedSymbols only grows until
// the object decodes, and is 0 after, so the peak is its value after the
// arrival before the decoding one (when that is in the batch), or at the
// end.
func (d *Decoder) receive(ids []int32, arrived uint64, val []byte) (n int, done bool, peak int) {
	known, nvars := d.known, uint32(d.code.n)
	for ; arrived != 0; arrived &= arrived - 1 {
		n++
		id := ids[bits.TrailingZeros64(arrived)]
		if uint32(id) >= nvars {
			d.outside(int(id))
		}
		if !d.Done() && !has(known, id) {
			peak = d.knownCount
			d.propagate(id, val)
		}
		if d.Done() {
			if n == 1 {
				peak = 0 // the decoding arrival is the batch's first
			}
			return n, true, peak
		}
	}
	if n == 0 {
		return 0, false, 0
	}
	return n, false, d.BufferedSymbols()
}

// propagate makes the unknown variable id known — in payload mode val
// holds its bytes, read during the call — and peels: a variable becoming
// known leaves each of its equations' unknowns, and an equation left
// with one unknown solves that one.
//
// The solve queue is a stack: every equation update writes the
// equation's xorID to the top slot and advances the stack pointer iff
// one unknown is left, without a branch; an id popped twice (two
// equations solved it) is skipped as known. The variables made known are
// logged downwards from the stack's far end, each with the equation that
// solved it, for the payload log. An equation reaches one unknown once,
// so pushes and log together never exceed m+1 entries, and the stack has
// m+2 for the top slot. Tables and both ends live in locals.
func (d *Decoder) propagate(id int32, val []byte) {
	c := d.code
	if d.stack == nil {
		d.stack = make([]solve, c.m+2)
	}
	varEq, eqs, known, stack := c.varEq, d.eqs, d.known, d.stack
	stack[0] = solve{id, -1}
	logged := len(stack)
	for sp := 1; sp > 0; {
		sp--
		s := stack[sp]
		w, bit := s.id>>6, uint64(1)<<(s.id&63)
		if known[w]&bit != 0 {
			continue
		}
		known[w] |= bit
		logged--
		stack[logged] = s
		for j, end := equations(varEq, s.id); j < end; j++ {
			eq := varEq[j]
			if eq < 0 {
				break
			}
			e := &eqs[eq]
			e.unknown--
			e.xorID ^= s.id
			stack[sp] = solve{e.xorID, eq}
			sp += oneIf(e.unknown == 1)
		}
	}
	made := stack[logged:]
	d.knownCount += len(made)
	for _, s := range made {
		if int(s.id) < c.k {
			d.srcKnown++
		}
	}
	if d.pay != nil {
		d.pay.record(c, made, val, d.Done())
	}
}

// solve is an entry of the solve queue: a variable, and the equation it
// was the last unknown of (-1 for the variable that arrived).
type solve struct{ id, eq int32 }

// oneIf is 1 if b, else 0, computed without a branch.
func oneIf(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// record is propagate's payload step. made lists the variables it made
// known, last first; the last entry is the one that arrived, whose bytes
// val holds and go to its slot. The others were solved by equations and
// are appended to the log in solve order. Once the object is done, solve
// writes them.
func (p *payloads) record(c *Code, made []solve, val []byte, done bool) {
	copy(p.draw(c, made[len(made)-1].id), val)
	if len(made) > 1 && p.log == nil {
		p.log = make([]solve, 0, c.m)
	}
	for i := len(made) - 2; i >= 0; i-- {
		p.log = append(p.log, made[i])
	}
	if done {
		p.solve(c)
	}
}

// solve writes every logged variable not yet in its slot, in solve
// order, as the XOR sum of the other members of the equation that solved
// it: each of those arrived, or was solved earlier in the log.
func (p *payloads) solve(c *Code) {
	var buf [termsOnStack][]byte
	for _, s := range p.log[p.solved:] {
		terms := buf[:0]
		for _, v := range c.EquationVars(int(s.eq)) {
			if v != s.id {
				terms = append(terms, p.slot(c, v))
			}
		}
		gf256.XorSum(p.draw(c, s.id), terms)
	}
	p.solved = len(p.log)
}

// slot returns the bytes of known variable v, arrived or solved.
func (p *payloads) slot(c *Code, v int32) []byte {
	if int(v) < c.k {
		return p.src.Slot(int(v))
	}
	return p.par.Slot(int(v) - c.k)
}

// draw returns variable v's slot for its first write.
func (p *payloads) draw(c *Code, v int32) []byte {
	if int(v) < c.k {
		return p.src.Draw(int(v))
	}
	return p.par.Draw(int(v) - c.k)
}

// Done implements core.Receiver.
func (d *Decoder) Done() bool { return d.srcKnown == d.code.k }

// BufferedSymbols implements core.Receiver. A large-block iterative
// decoder must keep every known symbol until the object completes (any of
// them may be a term of a lost symbol's equation); afterwards only the k
// source symbols remain and they stream out, so the requirement drops to
// zero. This is the paper's storage model, which the goldens pin, and
// the payload decoder's too: it keeps every known symbol in its slabs
// until the object completes (see payloads).
func (d *Decoder) BufferedSymbols() int {
	if d.Done() {
		return 0
	}
	return d.knownCount
}

// SourceRecovered implements core.Receiver.
func (d *Decoder) SourceRecovered() int { return d.srcKnown }

// Source returns the recovered payload of source symbol i, or nil if it is
// not yet known (or the sources were taken). Payload mode only.
func (d *Decoder) Source(i int) []byte {
	if d.pay == nil {
		panic("ldpc: Source on a structural decoder")
	}
	if i < 0 || i >= d.code.k {
		panic(fmt.Sprintf("ldpc: source index %d outside [0,%d)", i, d.code.k))
	}
	if !has(d.known, int32(i)) || d.pay.src.Slots() == 0 { // unknown, or the slab is gone (taken, closed)
		return nil
	}
	d.pay.solve(d.code) // a solved source is written at completion, or here
	return d.pay.src.Slot(i)
}

// TakeSources implements core.PayloadDecoder: once Done, the slab of the
// k source symbols moves to the caller.
func (d *Decoder) TakeSources() symbol.Slab {
	if d.pay == nil || !d.Done() {
		panic("ldpc: TakeSources needs a payload decoder that is done")
	}
	return d.pay.src.Take()
}

// Known reports whether variable id has been received or rebuilt.
func (d *Decoder) Known(id int) bool { return has(d.known, int32(id)) }

// Close implements core.PayloadDecoder: it returns the slabs the decoder
// still owns to the symbol pool, and hands the decoder itself back to its
// code, whose next payload decoder it becomes. The caller must drop its
// pointer: the decoder, and any slice Source returned, must not be used
// after Close. A second Close before the code hands the decoder out again
// is a no-op; Close is a no-op for structural decoders.
func (d *Decoder) Close() {
	if d.pay == nil || d.pay.closed {
		return
	}
	d.pay.src.Release()
	d.pay.par.Release()
	d.pay.closed = true
	d.code.decoders.Put(d)
}
