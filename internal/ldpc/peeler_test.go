package ldpc

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// closure is the oracle for the peeler: the received set, closed under
// "an equation with one unknown variable left solves it", recomputed
// from scratch over the row index alone.
func closure(c *Code, received []bool) []bool {
	known := slices.Clone(received)
	for changed := true; changed; {
		changed = false
		for i := 0; i < c.m; i++ {
			unknown, last := 0, int32(-1)
			for _, v := range c.EquationVars(i) {
				if !known[v] {
					unknown++
					last = v
				}
			}
			if unknown == 1 {
				known[last] = true
				changed = true
			}
		}
	}
	return known
}

// peelerState is what a decoder shows of itself after an arrival.
type peelerState struct {
	known               string
	done                bool
	recovered, buffered int
}

func stateOfDecoder(d *Decoder) peelerState {
	known := bytes.Repeat([]byte{'0'}, d.code.n)
	for id := range known {
		if d.Known(id) {
			known[id] = '1'
		}
	}
	return peelerState{string(known), d.Done(), d.SourceRecovered(), d.BufferedSymbols()}
}

// stateOfClosure is the state the paper's decoder is in once it holds
// known: the peeling closure of what it received.
func stateOfClosure(k int, known []bool) peelerState {
	var st peelerState
	b := bytes.Repeat([]byte{'0'}, len(known))
	count := 0
	for id, ok := range known {
		if ok {
			b[id] = '1'
			count++
			if id < k {
				st.recovered++
			}
		}
	}
	st.known, st.done = string(b), st.recovered == k
	if !st.done {
		st.buffered = count
	}
	return st
}

// peelerCodes spans the index's shapes: every variant; ratios above
// 1 + LeftDegree, whose patched rows give sources a fourth or fifth
// equation; triangle densities whose early parities sit in more than
// four equations; and a left degree of five, every source past its
// slots.
func peelerCodes(t *testing.T) []*Code {
	var out []*Code
	for _, v := range allVariants() {
		for _, ratio := range []float64{1.5, 2.5, 4, 6} {
			for _, p := range []Params{{}, {TriangleDensity: 3}, {LeftDegree: 5}} {
				if p.TriangleDensity != 0 && v != Triangle {
					continue
				}
				p.K, p.Variant, p.Seed = 48, v, int64(ratio*10)
				p.N = int(float64(p.K) * ratio)
				out = append(out, mustNew(t, p))
			}
		}
	}
	return out
}

// TestPeelerMatchesClosure: after every arrival of seeded orders with
// duplicates, and after each batch of masked arrivals, Known of every
// id, SourceRecovered, BufferedSymbols and Done are the closure's, for
// the structural decoder fed one id at a time, the structural decoder
// fed in batches, and the payload decoder; the payload decoder's sources
// are the encoded ones. The index keeps exactly the variables of degree
// four or less in their slots.
func TestPeelerMatchesClosure(t *testing.T) {
	overflowed := 0
	for _, c := range peelerCodes(t) {
		p := c.Params()
		t.Run(fmt.Sprintf("%v/n=%d/deg=%d/dens=%g", p.Variant, p.N, p.LeftDegree, p.TriangleDensity), func(t *testing.T) {
			deg := make([]int, c.n)
			for _, v := range c.rowIdx {
				deg[v]++
			}
			for v := range deg {
				inSlots := c.varEq[eqSlots*v+eqSlots-1] >= -1
				if inSlots != (deg[v] <= eqSlots) {
					t.Fatalf("variable %d of degree %d: in its slots %v", v, deg[v], inSlots)
				}
				if !inSlots {
					overflowed++
				}
			}

			const symLen = 8
			rng := rand.New(rand.NewSource(int64(c.n)))
			src := make([][]byte, c.k)
			for i := range src {
				src[i] = make([]byte, symLen)
				rng.Read(src[i])
			}
			par := make([][]byte, c.m)
			for i := range par {
				par[i] = make([]byte, symLen)
			}
			if err := c.EncodeInto(src, par); err != nil {
				t.Fatal(err)
			}
			symbolOf := func(id int32) []byte {
				if int(id) < c.k {
					return src[id]
				}
				return par[int(id)-c.k]
			}

			for trial := range 4 {
				// Arrivals drawn with replacement: duplicates throughout,
				// and past the point of decoding.
				arrivals := make([]int32, 2*c.n)
				for i := range arrivals {
					arrivals[i] = int32(rng.Intn(c.n))
				}
				single, batched := c.newDecoder(0), c.newDecoder(0)
				payload := c.NewPayloadDecoder(symLen)
				received := make([]bool, c.n)
				for i, id := range arrivals {
					received[id] = true
					want := stateOfClosure(c.k, closure(c, received))
					if got := single.Receive(int(id)); got != want.done {
						t.Fatalf("trial %d arrival %d (id %d): Receive %v, closure done %v", trial, i, id, got, want.done)
					}
					if got := stateOfDecoder(single); got != want {
						t.Fatalf("trial %d arrival %d (id %d): Receive leaves %+v, closure %+v", trial, i, id, got, want)
					}
					payload.ReceivePayload(int(id), symbolOf(id))
					if got := stateOfDecoder(payload); got != want {
						t.Fatalf("trial %d arrival %d (id %d): ReceivePayload leaves %+v, closure %+v", trial, i, id, got, want)
					}
				}
				for i := range src {
					if got := payload.Source(i); !bytes.Equal(got, src[i]) {
						t.Fatalf("trial %d: source %d decoded as %x, encoded %x", trial, i, got, src[i])
					}
				}
				payload.Close()

				// The same orders in batches of up to 64 transmissions,
				// some lost.
				clear(received)
				done := false
				for pos := 0; pos < len(arrivals) && !done; pos += 64 {
					ids := arrivals[pos:min(pos+64, len(arrivals))]
					mask := rng.Uint64() | rng.Uint64() // about three in four arrive
					mask &= 1<<len(ids) - 1
					var want peelerState
					wantPeak, wantN := 0, 0
					for m := mask; m != 0; m &= m - 1 {
						received[ids[bits.TrailingZeros64(m)]] = true
						want = stateOfClosure(c.k, closure(c, received))
						wantN++
						wantPeak = max(wantPeak, want.buffered)
						if want.done {
							break
						}
					}
					var n, got int
					n, done, got = batched.ReceiveBatch(ids, mask)
					if n != wantN || done != want.done || got != wantPeak {
						t.Fatalf("trial %d batch at %d: consumed %d, decoded %v, peak %d; want %d, %v, %d",
							trial, pos, n, done, got, wantN, want.done, wantPeak)
					}
					if wantN > 0 {
						if st := stateOfDecoder(batched); st != want {
							t.Fatalf("trial %d batch at %d: ReceiveBatch leaves %+v, closure %+v", trial, pos, st, want)
						}
					}
				}
			}
		})
	}
	if overflowed == 0 {
		t.Fatal("no variable of these codes overflows its slots")
	}
}
