package codes

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"fecperf/internal/core"
	"fecperf/internal/symbol"
	"fecperf/internal/wire"
)

// TestRecycledDecodersMatchFresh feeds every payload family the same
// seeded loss orders, each with an object of its own, through two codecs
// of one geometry: one builds a fresh decoder per order, the other hands
// out the decoder the previous object closed — every other time one
// closed unfinished, as an evicted object's is. After each arrival the two must agree on Done and on the
// sources recovered, and at the end on every source's bytes, which must
// be the object's once it decodes. A decoder closed twice is handed out
// once. No pool buffer may outlive the test.
func TestRecycledDecodersMatchFresh(t *testing.T) {
	live := symbol.PoolStats().Live
	for _, f := range []wire.CodeFamily{wire.CodeLDGMStaircase, wire.CodeLDGMTriangle, wire.CodeRSE, wire.CodeRSE16, wire.CodeNoFEC} {
		t.Run(f.String(), func(t *testing.T) {
			const k, symLen = 100, 48
			ratio := 1.5
			if f == wire.CodeNoFEC {
				ratio = 1
			}
			n, err := N(f, k, ratio)
			if err != nil {
				t.Fatal(err)
			}
			recycled, err := ForWire(f, k, n, 5)
			if err != nil {
				t.Fatal(err)
			}
			var last core.PayloadDecoder // the decoder closed last
			for seed := int64(1); seed <= 6; seed++ {
				order := lossOrder(f, n, seed)
				if seed%2 == 1 {
					// An object evicted halfway: its decoder goes back unfinished.
					d := newDecoder(t, recycled, symLen)
					evicted := encodeRandom(t, recycled, k, n, symLen, -seed)
					for _, id := range order[:len(order)/2] {
						d.ReceivePayload(id, evicted[id])
					}
					d.Close()
					last = d
				}
				fresh, err := ForWire(f, k, n, 5)
				if err != nil {
					t.Fatal(err)
				}
				payloads := encodeRandom(t, recycled, k, n, symLen, seed)
				want, got := newDecoder(t, fresh, symLen), newDecoder(t, recycled, symLen)
				if got != last {
					t.Fatalf("seed %d: the codec built a decoder instead of reusing the one closed last", seed)
				}
				for i, id := range order {
					wd, gd := want.ReceivePayload(id, payloads[id]), got.ReceivePayload(id, payloads[id])
					if wd != gd || want.SourceRecovered() != got.SourceRecovered() {
						t.Fatalf("seed %d, arrival %d (id %d): recycled done=%t recovered=%d, fresh done=%t recovered=%d",
							seed, i, id, gd, got.SourceRecovered(), wd, want.SourceRecovered())
					}
					if wd {
						break
					}
				}
				for i := 0; i < k; i++ {
					if w, g := want.Source(i), got.Source(i); !bytes.Equal(w, g) || (w == nil) != (g == nil) {
						t.Fatalf("seed %d: source %d differs between the recycled and the fresh decoder", seed, i)
					}
				}
				if got.Done() {
					src := got.TakeSources()
					for i := 0; i < k; i++ {
						if !bytes.Equal(src.Slot(i), payloads[i]) {
							t.Fatalf("seed %d: decoded source %d is not the object's", seed, i)
						}
					}
					src.Release()
				}
				want.Close()
				got.Close()
				last = got
			}
			// A second Close of the decoder closed last must not hand it
			// out twice.
			last.Close()
			if a, b := newDecoder(t, recycled, symLen), newDecoder(t, recycled, symLen); a == b {
				t.Error("a decoder closed twice was handed out twice")
			} else {
				a.Close()
				b.Close()
			}
		})
	}
	if end := symbol.PoolStats().Live; end != live {
		t.Errorf("symbol pool: %d live buffers at the start, %d at the end", live, end)
	}
}

// TestRecycledDecodersBounded closes FreeListCap+3 decoders of one code
// and opens as many again: a code keeps at most FreeListCap closed
// decoders, so the rest of the second batch are new ones.
func TestRecycledDecodersBounded(t *testing.T) {
	const k, symLen, extra = 40, 16, 3
	for _, f := range []wire.CodeFamily{wire.CodeLDGMStaircase, wire.CodeLDGMTriangle, wire.CodeRSE, wire.CodeRSE16, wire.CodeNoFEC} {
		ratio := 1.5
		if f == wire.CodeNoFEC {
			ratio = 1
		}
		n, err := N(f, k, ratio)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ForWire(f, k, n, 5)
		if err != nil {
			t.Fatal(err)
		}
		closed := map[core.PayloadDecoder]bool{}
		batch := make([]core.PayloadDecoder, symbol.FreeListCap+extra)
		for i := range batch {
			batch[i] = newDecoder(t, c, symLen)
		}
		for _, d := range batch {
			d.Close()
			closed[d] = true
		}
		reused := 0
		for i := range batch {
			batch[i] = newDecoder(t, c, symLen)
			if closed[batch[i]] {
				reused++
			}
		}
		for _, d := range batch {
			d.Close()
		}
		if reused != symbol.FreeListCap {
			t.Errorf("%s: %d of %d closed decoders handed out again, want the free list's cap %d",
				f, reused, len(batch), symbol.FreeListCap)
		}
	}
}

func newDecoder(t *testing.T, c core.Codec, symLen int) core.PayloadDecoder {
	t.Helper()
	d, err := c.NewDecoder(symLen)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// encodeRandom returns the n payloads of an object of k random source
// symbols, by packet ID.
func encodeRandom(t *testing.T, c core.Codec, k, n, symLen int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	payloads := make([][]byte, n)
	for id := range payloads {
		payloads[id] = make([]byte, symLen)
		if id < k {
			rng.Read(payloads[id])
		}
	}
	if err := c.EncodeInto(payloads[:k], payloads[k:]); err != nil {
		t.Fatal(fmt.Errorf("encoding: %w", err))
	}
	return payloads
}

// lossOrder is a seeded arrival order: every packet ID in random order,
// less about a fifth of them lost (none for a code without parity).
func lossOrder(f wire.CodeFamily, n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n)
	if f == wire.CodeNoFEC {
		return order
	}
	kept := order[:0]
	for _, id := range order {
		if rng.Float64() >= 0.2 {
			kept = append(kept, id)
		}
	}
	return kept
}
