package ldpc

// This file implements the hybrid decoding step the paper's future-work
// section gestures at (and that later LDPC codecs adopted): when the
// iterative peeling decoder stalls, finish the job with Gaussian
// elimination over the *residual* system — the equations that still have
// unknowns, restricted to the unknown variables. Peeling does the bulk of
// the work in O(edges); elimination only pays its cubic cost on the small
// stopping set that remains, and it recovers every erasure pattern of
// maximum-likelihood decoding.

import (
	"fecperf/internal/core"
	"fecperf/internal/gf256"
	"fecperf/internal/symbol"
)

// SolveGauss attempts to complete a stalled decode by Gaussian elimination
// on the residual system. It works in both structural and payload modes;
// in payload mode the recovered symbol values become available through
// Source as usual. It returns Done() afterwards.
//
// Calling it when decoding already completed is a no-op returning true.
// The decoder remains usable either way: if elimination cannot determine
// every needed symbol it solves what it can and further packets may be
// delivered afterwards.
func (d *Decoder) SolveGauss() bool {
	if d.Done() {
		return true
	}
	c := d.code

	// Collect the unknown variables that appear in live equations.
	colOf := make(map[int32]int)
	var cols []int32
	liveEqs := make([]int32, 0, 64)
	for eq := 0; eq < c.m; eq++ {
		if d.eqs[eq].unknown == 0 {
			continue
		}
		liveEqs = append(liveEqs, int32(eq))
		for _, v := range c.EquationVars(eq) {
			if !has(d.known, v) {
				if _, ok := colOf[v]; !ok {
					colOf[v] = len(cols)
					cols = append(cols, v)
				}
			}
		}
	}
	if len(cols) == 0 {
		return d.Done()
	}

	// Build the residual system: one bit row per live equation over the
	// unknown columns, plus the payload RHS (the XOR sum of its known
	// members, every logged one written first) when in payload mode.
	nUnk := len(cols)
	words := (nUnk + 63) / 64
	rows := make([][]uint64, len(liveEqs))
	rhs := make([][]byte, len(liveEqs))
	if d.symLen > 0 {
		d.pay.solve(c)
	}
	var terms [][]byte
	for i, eq := range liveEqs {
		row := make([]uint64, words)
		terms = terms[:0]
		for _, v := range c.EquationVars(int(eq)) {
			if !has(d.known, v) {
				j := colOf[v]
				row[j/64] ^= 1 << (j % 64)
			} else if d.symLen > 0 {
				terms = append(terms, d.pay.slot(c, v))
			}
		}
		rows[i] = row
		if d.symLen > 0 {
			rhs[i] = symbol.GetDirty(d.symLen)
			gf256.XorSum(rhs[i], terms)
		}
	}

	// Gauss-Jordan elimination.
	rank := 0
	pivotCol := make([]int, 0, nUnk)
	for col := 0; col < nUnk && rank < len(rows); col++ {
		w, b := col/64, uint(col%64)
		pivot := -1
		for r := rank; r < len(rows); r++ {
			if rows[r][w]>>b&1 == 1 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[rank], rows[pivot] = rows[pivot], rows[rank]
		if d.symLen > 0 {
			rhs[rank], rhs[pivot] = rhs[pivot], rhs[rank]
		}
		for r := 0; r < len(rows); r++ {
			if r != rank && rows[r][w]>>b&1 == 1 {
				for t := 0; t < words; t++ {
					rows[r][t] ^= rows[rank][t]
				}
				if d.symLen > 0 {
					gf256.Xor(rhs[r], rhs[rank])
				}
			}
		}
		pivotCol = append(pivotCol, col)
		rank++
	}

	// A pivot row with no other set column determines its variable.
	isPivot := make([]bool, nUnk)
	for _, pc := range pivotCol {
		isPivot[pc] = true
	}
	for r, pc := range pivotCol {
		determined := true
		for col := 0; col < nUnk; col++ {
			if col == pc {
				continue
			}
			if rows[r][col/64]>>(uint(col%64))&1 == 1 {
				determined = false
				break
			}
		}
		if !determined {
			continue
		}
		// Peel from the solved variable: it may unlock equations the
		// elimination left alone (rows dropped by rank), and solve
		// variables further down this list, which are then skipped.
		if v := cols[pc]; !has(d.known, v) {
			d.propagate(v, rhs[r])
		}
	}
	symbol.PutAll(rhs)
	return d.Done()
}

// mlReceiver is a Params.Gauss code's NewReceiver: the peeling decoder
// with the Gaussian fallback, as a core.Receiver for simulations. It
// decodes exactly the patterns maximum-likelihood decoding can. To keep
// the per-packet cost sane it only attempts elimination once at least k
// packets have arrived, and then at every arrival (each attempt either
// finishes decoding or solves nothing, and the residual system shrinks as
// peeling consumes the newly delivered packets), so it takes a batch one
// arrival at a time. Done, SourceRecovered and BufferedSymbols are the
// peeling decoder's.
type mlReceiver struct {
	*Decoder
	received int
}

// Receive implements core.Receiver.
func (m *mlReceiver) Receive(id int) bool {
	if m.Done() {
		return true
	}
	m.received++
	if m.Decoder.Receive(id) {
		return true
	}
	if m.received >= m.code.k {
		return m.SolveGauss()
	}
	return false
}

// ReceiveBatch implements core.Receiver: one Receive per arrival.
func (m *mlReceiver) ReceiveBatch(ids []int32, arrived uint64) (consumed int, decoded bool, peak int) {
	return core.ReceiveEach(m, ids, arrived)
}

// Reset implements core.Receiver.
func (m *mlReceiver) Reset() {
	m.Decoder.Reset()
	m.received = 0
}
