package core

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"

	"fecperf/internal/symbol"
)

// xorLayout is a block code with one XOR parity per block, except the
// blocks listed in bare, which have none: sizes[i] sources in block i.
func xorLayout(sizes []int, bare ...int) Layout {
	l := Layout{}
	for _, kb := range sizes {
		l.K += kb
	}
	src, par := 0, l.K
	for bi, kb := range sizes {
		b := Block{}
		for i := 0; i < kb; i++ {
			b.Source = append(b.Source, src+i)
		}
		src += kb
		hasParity := true
		for _, x := range bare {
			hasParity = hasParity && x != bi
		}
		if hasParity {
			b.Parity = []int{par}
			par++
		}
		l.Blocks = append(l.Blocks, b)
	}
	l.N = par
	return l
}

// xorSolver rebuilds the one source a single-parity block can miss.
type xorSolver struct{}

func (xorSolver) SolveBlock(_ int, tab [][]byte) {
	kb := len(tab) - 2 // n_b = k_b+1, e = 1
	out := tab[kb+1]
	copy(out, tab[kb])
	for _, s := range tab[:kb] {
		for i := range s {
			out[i] ^= s[i]
		}
	}
}

// xorEncode returns every packet's payload, by global ID.
func xorEncode(l Layout, rng *rand.Rand, symLen int) [][]byte {
	all := make([][]byte, l.N)
	for id := range all {
		all[id] = make([]byte, symLen)
		if id < l.K {
			rng.Read(all[id])
		}
	}
	for _, b := range l.Blocks {
		for _, pid := range b.Parity {
			for _, sid := range b.Source {
				for i := range all[pid] {
					all[pid][i] ^= all[sid][i]
				}
			}
		}
	}
	return all
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestBlockDecoderRefusesNonContiguousLayouts(t *testing.T) {
	for name, l := range map[string]Layout{
		"sources out of order": {K: 3, N: 4, Blocks: []Block{{Source: []int{0, 2, 1}, Parity: []int{3}}}},
		"interleaved blocks": {K: 4, N: 6, Blocks: []Block{
			{Source: []int{0, 2}, Parity: []int{4}}, {Source: []int{1, 3}, Parity: []int{5}}}},
		"blocks out of ID order": {K: 4, N: 6, Blocks: []Block{
			{Source: []int{2, 3}, Parity: []int{5}}, {Source: []int{0, 1}, Parity: []int{4}}}},
		"parities swapped": {K: 4, N: 6, Blocks: []Block{
			{Source: []int{0, 1}, Parity: []int{5}}, {Source: []int{2, 3}, Parity: []int{4}}}},
		"short cover": {K: 4, N: 6, Blocks: []Block{{Source: []int{0, 1}, Parity: []int{4}}}},
	} {
		mustPanic(t, name, func() { NewBlockDecoder(l, 0, nil) })
	}
	NewBlockDecoder(xorLayout([]int{3, 1, 2}, 1), 0, nil) // the contiguous form passes
}

func TestBlockDecoderModeMismatchPanics(t *testing.T) {
	l := xorLayout([]int{2})
	structural := NewBlockDecoder(l, 0, xorSolver{})
	mustPanic(t, "ReceivePayload on a structural decoder", func() { structural.ReceivePayload(0, []byte{1}) })
	mustPanic(t, "Source on a structural decoder", func() { structural.Source(0) })
	mustPanic(t, "TakeSources on a structural decoder", func() { structural.TakeSources() })
	structural.Close() // a no-op

	payload := NewBlockDecoder(l, 4, xorSolver{})
	defer payload.Close()
	mustPanic(t, "Receive on a payload decoder", func() { payload.Receive(0) })
	mustPanic(t, "wrong payload length", func() { payload.ReceivePayload(0, make([]byte, 3)) })
	mustPanic(t, "packet id out of range", func() { payload.ReceivePayload(l.N, make([]byte, 4)) })
	mustPanic(t, "negative packet id", func() { structural.Receive(-1) })
	mustPanic(t, "source index out of range", func() { payload.Source(l.K) })
	mustPanic(t, "TakeSources before Done", func() { payload.TakeSources() })
	mustPanic(t, "Reset on a payload decoder", func() { payload.Reset() })
}

func TestBlockDecoderBlockOf(t *testing.T) {
	// Parity-less blocks first, in the middle and last.
	l := xorLayout([]int{2, 3, 1, 4, 2}, 0, 2, 4)
	d := NewBlockDecoder(l, 0, nil)
	for bi, b := range l.Blocks {
		for i, id := range append(append([]int{}, b.Source...), b.Parity...) {
			if gotB, gotI := d.blockOf(id); gotB != bi || gotI != i {
				t.Fatalf("blockOf(%d) = (%d,%d), want (%d,%d)", id, gotB, gotI, bi, i)
			}
		}
	}
}

// TestBlockDecoderRunningCounts: after every packet of random arrival
// orders with duplicates, the O(1) counters equal a recount from the
// received-bitmap, in both modes.
func TestBlockDecoderRunningCounts(t *testing.T) {
	l := xorLayout([]int{3, 1, 4, 2}, 1)
	rng := rand.New(rand.NewSource(3))
	all := xorEncode(l, rng, 8)
	for _, symLen := range []int{0, 8} {
		for trial := 0; trial < 20; trial++ {
			d := NewBlockDecoder(l, symLen, xorSolver{})
			for i := 0; i < 2*l.N; i++ {
				id := rng.Intn(l.N)
				if symLen == 0 {
					d.Receive(id)
				} else {
					d.ReceivePayload(id, all[id])
				}
				marked, buffered, recovered, pending := 0, 0, 0, 0
				for _, w := range d.got {
					marked += bits.OnesCount64(w)
				}
				for bi, b := range l.Blocks {
					n, srcs := 0, 0
					for _, id := range b.Source {
						if d.has(id) {
							n++
							srcs++
						}
					}
					for _, id := range b.Parity {
						if d.has(id) {
							n++
						}
					}
					if n >= len(b.Source) != d.blocks[bi].decoded() {
						t.Fatalf("block %d holds %d of %d symbols but decoded=%v", bi, n, len(b.Source), d.blocks[bi].decoded())
					}
					if d.blocks[bi].decoded() {
						recovered += len(b.Source)
					} else {
						buffered += n
						recovered += srcs
						pending++
					}
				}
				if d.BufferedSymbols() != buffered || d.SourceRecovered() != recovered || d.Done() != (pending == 0) {
					t.Fatalf("symLen %d after %d packets (%d marked): buffered %d recovered %d done %v, recount %d / %d / %v",
						symLen, i+1, marked, d.BufferedSymbols(), d.SourceRecovered(), d.Done(), buffered, recovered, pending == 0)
				}
			}
			d.Close()
		}
	}
}

// TestBlockDecoderBatchMatchesReceive: ReceiveBatch consumes what that
// many Receive calls would, up to the decoding arrival, leaves the same
// counts, and reports the largest BufferedSymbols after any consumed
// arrival of its own batch — 0 when it consumes none.
func TestBlockDecoderBatchMatchesReceive(t *testing.T) {
	l := xorLayout([]int{3, 1, 4, 2}, 1)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		batched, single := NewBlockDecoder(l, 0, nil), NewBlockDecoder(l, 0, nil)
		for done := false; !done; {
			ids := make([]int32, 1+rng.Intn(12))
			for j := range ids {
				ids[j] = int32(rng.Intn(l.N)) // duplicates included
			}
			mask := rng.Uint64() & (1<<len(ids) - 1)
			wantN, wantPeak, wantDone := 0, 0, false
			for m := mask; m != 0 && !wantDone; m &= m - 1 {
				wantDone = single.Receive(int(ids[bits.TrailingZeros64(m)]))
				wantN++
				wantPeak = max(wantPeak, single.BufferedSymbols())
			}
			var n, peak int
			n, done, peak = batched.ReceiveBatch(ids, mask)
			if n != wantN || done != wantDone || peak != wantPeak {
				t.Fatalf("trial %d, ids %v mask %b: consumed %d, decoded %v, peak %d; Receive gives %d, %v, %d",
					trial, ids, mask, n, done, peak, wantN, wantDone, wantPeak)
			}
			if batched.BufferedSymbols() != single.BufferedSymbols() || batched.SourceRecovered() != single.SourceRecovered() {
				t.Fatalf("trial %d: batches leave buffered %d recovered %d, Receive %d / %d", trial,
					batched.BufferedSymbols(), batched.SourceRecovered(), single.BufferedSymbols(), single.SourceRecovered())
			}
		}
	}
}

func TestBlockDecoderCloseAndTakeSourcesBalancePool(t *testing.T) {
	l := xorLayout([]int{3, 2}, 1)
	rng := rand.New(rand.NewSource(4))
	const symLen = 32
	all := xorEncode(l, rng, symLen)
	start := symbol.PoolStats().Live

	// Closed mid-flight with a source and a parity buffered.
	d := NewBlockDecoder(l, symLen, xorSolver{})
	d.ReceivePayload(0, all[0])
	d.ReceivePayload(l.K, all[l.K])
	if symbol.PoolStats().Live == start {
		t.Fatal("a decoder holding two symbols holds no pooled buffer")
	}
	d.Close()
	d.Close() // idempotent
	if live := symbol.PoolStats().Live; live != start {
		t.Fatalf("Close left %d pooled buffers checked out", live-start)
	}

	// Decoded through the solver (source 1 is rebuilt), sources taken.
	d = NewBlockDecoder(l, symLen, xorSolver{})
	for _, id := range []int{0, l.K, 2, 4, 2, 3} {
		d.ReceivePayload(id, all[id])
	}
	if !d.Done() || d.SourceRecovered() != l.K {
		t.Fatalf("done=%v with %d of %d sources", d.Done(), d.SourceRecovered(), l.K)
	}
	for i := 0; i < l.K; i++ {
		if !bytes.Equal(d.Source(i), all[i]) {
			t.Fatalf("source %d differs from the original", i)
		}
	}
	slab := d.TakeSources()
	if d.Source(0) != nil {
		t.Fatal("Source still answers after TakeSources")
	}
	d.Close()
	if symbol.PoolStats().Live == start {
		t.Fatal("Close released the slab the caller took")
	}
	if !bytes.Equal(slab.Slot(1), all[1]) {
		t.Fatal("taken slab does not hold the rebuilt source")
	}
	slab.Release()
	if live := symbol.PoolStats().Live; live != start {
		t.Fatalf("%d pooled buffers still checked out after Release", live-start)
	}
}
