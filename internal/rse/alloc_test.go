package rse

import (
	"testing"

	"fecperf/internal/core"
	"fecperf/internal/symbol"
)

// Alloc ceilings for the payload codec hot paths. Encode's only steady-
// state allocation is the parity slice header; decode's scratch (the
// received generator rows, the e×e system and its inverse) is pooled and
// its vectors reuse the block's parity table, so what remains is the
// decoder's own fixed setup plus one parity table per block that buffers
// any.

func TestCodecEncodeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceilings gate the plain tier")
	}
	c, src := benchSource(t)
	run := func() {
		parity, err := c.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		symbol.PutAll(parity)
	}
	run() // warm the pools and build the generator
	if avg := testing.AllocsPerRun(50, run); avg > 2 {
		t.Errorf("Encode allocs/op = %.1f, want <= 2", avg)
	}
}

func TestCodecDecodeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceilings gate the plain tier")
	}
	// k=32 is one block; k=256 is two (128 of 192 each), so the second
	// case also covers the per-block parity table being paid twice.
	for _, k := range []int{benchK, 256} {
		c, src := codecFixture(t, k)
		parity, err := c.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		all := append(append([][]byte{}, src...), parity...)

		// Parity-heavy delivery: drop the first half of every block's
		// sources so the decoder must solve.
		var order []int
		for _, blk := range c.Layout().Blocks {
			order = append(order, blk.Source[len(blk.Source)/2:]...)
			order = append(order, blk.Parity...)
		}
		run := func() {
			dec, err := c.NewDecoder(benchSymLen)
			if err != nil {
				t.Fatal(err)
			}
			done := false
			for _, id := range order {
				if done = dec.ReceivePayload(id, all[id]); done {
					break
				}
			}
			if !done {
				t.Fatalf("k=%d: decoder did not finish from %d of %d symbols", k, len(order), len(all))
			}
			for i := 0; i < k; i++ {
				if dec.Source(i) == nil {
					t.Fatalf("k=%d: source %d missing", k, i)
				}
			}
			dec.Close()
		}
		run() // warm the pools
		if avg := testing.AllocsPerRun(50, run); avg > 8 {
			t.Errorf("k=%d: decode allocs/op = %.1f, want <= 8", k, avg)
		}
		symbol.PutAll(parity)
	}
}

// TestDecoderCloseBalancesPool checks the ownership side of the in-place
// solve: the pool's live-buffer count must return to where it started
// whether a decoder is closed mid-block (parity buffered, nothing solved)
// or after a solve, and right after a solve it must be exactly the
// recovered sources plus the parity still buffered elsewhere — syndrome
// buffers, scratch matrices and outputs each change hands exactly once
// (a double Put would undershoot, a dropped buffer overshoot).
func TestDecoderCloseBalancesPool(t *testing.T) {
	c, src := codecFixture(t, 256)
	parity, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	defer symbol.PutAll(parity)
	all := append(append([][]byte{}, src...), parity...)
	b0, b1 := c.Layout().Blocks[0], c.Layout().Blocks[1]
	start := symbol.PoolStats().Live
	feed := func(dec core.PayloadDecoder, ids ...[]int) {
		for _, run := range ids {
			for _, id := range run {
				dec.ReceivePayload(id, all[id])
			}
		}
	}

	dec, err := c.NewDecoder(benchSymLen)
	if err != nil {
		t.Fatal(err)
	}
	feed(dec, b0.Source[:10], b0.Parity[:10], b1.Parity[:5])
	if live := symbol.PoolStats().Live; live != start+25 {
		t.Fatalf("mid-block: %d live buffers, want %d", live-start, 25)
	}
	dec.Close()
	if live := symbol.PoolStats().Live; live != start {
		t.Fatalf("closed mid-block: %d buffers still live", live-start)
	}

	const e = 40
	dec, err = c.NewDecoder(benchSymLen)
	if err != nil {
		t.Fatal(err)
	}
	feed(dec, b1.Parity[:7], b0.Parity[:e], b0.Source[e:])
	if got := dec.SourceRecovered(); got != len(b0.Source) {
		t.Fatalf("block 0 not solved: %d sources recovered, want %d", got, len(b0.Source))
	}
	if live, want := symbol.PoolStats().Live, start+int64(len(b0.Source))+7; live != want {
		t.Fatalf("after the solve: %d live buffers, want %d", live-start, want-start)
	}
	dec.Close()
	if live := symbol.PoolStats().Live; live != start {
		t.Fatalf("closed after the solve: %d buffers still live", live-start)
	}
}
