package rse

import (
	"testing"

	"fecperf/internal/core"
	"fecperf/internal/symbol"
)

// Alloc ceilings for the payload codec hot paths. EncodeInto allocates
// nothing at all (Encode adds the parity slice header); decode's scratch
// (the received generator rows, the e×e system and its inverse) is pooled
// and its vectors live in the block's view table, so what remains is the
// decoder's own fixed setup — the struct, the received-bitmap and the
// block table; its two slab buffer tables and the view tables of blocks
// that buffer parity are recycled by the symbol pool. Payload memory is slabs: a few pool round-trips per
// object, none per symbol.

func TestCodecEncodeIntoAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceilings gate the plain tier")
	}
	c, src := benchSource(t)
	parity, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	defer symbol.PutAll(parity)
	want := make([][]byte, len(parity))
	for i, p := range parity {
		want[i] = append([]byte(nil), p...)
		for j := range p {
			p[j] = 0xa5 // EncodeInto must overwrite, not accumulate into, its output
		}
	}
	run := func() {
		if err := c.EncodeInto(src, parity); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(50, run); avg > 0 {
		t.Errorf("EncodeInto allocs/op = %.1f, want 0", avg)
	}
	for i := range parity {
		if string(parity[i]) != string(want[i]) {
			t.Fatalf("EncodeInto over dirty buffers: parity %d differs from Encode", i)
		}
	}
}

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
	// case also covers the per-block view table being borrowed twice.
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
		// The decoder, its bitmap and block records; nothing per block and
		// no slab table — view and slab tables are recycled.
		if avg := testing.AllocsPerRun(50, run); avg > 5 {
			t.Errorf("k=%d: decode allocs/op = %.1f, want <= 5", k, avg)
		}
		// Pool traffic is per slab buffer, not per symbol: k source slots
		// and at most n-k parity slots of 1 KiB, 64 to a buffer, plus the
		// two scratch matrices of each block that solves (generator rows,
		// and the e×e system with its inversion workspace in one buffer).
		before := symbol.PoolStats().Gets
		run()
		slabs := (k+63)/64 + (len(parity)+63)/64
		if gets := int(symbol.PoolStats().Gets - before); gets > slabs+2*c.NumBlocks() {
			t.Errorf("k=%d: one decode drew %d pool buffers, want <= %d", k, gets, slabs+2*c.NumBlocks())
		}
		symbol.PutAll(parity)
	}
}

// TestDecoderCloseBalancesPool checks the ownership side of the slab
// design. The pool's live-buffer count must return to where it started
// whether a decoder is closed mid-block (parity buffered, nothing solved)
// or after a solve; while a decoder is open it must be exactly the slab
// buffers its symbols have touched — 64 one-KiB slots each: a solve's
// scratch matrices change hands exactly once and its outputs land in the
// source slab, not in buffers of their own (a double Put would
// undershoot, a dropped buffer overshoot); and TakeSources moves the
// source slab, and nothing else, out of Close's reach.
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
	live := func() int64 { return symbol.PoolStats().Live - start }

	dec, err := c.NewDecoder(benchSymLen)
	if err != nil {
		t.Fatal(err)
	}
	if live() != 0 {
		t.Fatalf("a fresh decoder holds %d buffers, want 0", live())
	}
	// 10 sources share the first source buffer, 15 parity symbols the
	// first parity buffer.
	feed(dec, b0.Source[:10], b0.Parity[:10], b1.Parity[:5])
	if live() != 2 {
		t.Fatalf("mid-block: %d live buffers, want 2", live())
	}
	dec.Close()
	if live() != 0 {
		t.Fatalf("closed mid-block: %d buffers still live", live())
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
	// Block 0's 128 sources span two source buffers — the 40 rebuilt
	// ones included — and the 47 buffered parity symbols one more.
	if live() != 3 {
		t.Fatalf("after the solve: %d live buffers, want 3", live())
	}
	for i := 0; i < e; i++ {
		if string(dec.Source(b0.Source[i])) != string(src[b0.Source[i]]) {
			t.Fatalf("rebuilt source %d differs", b0.Source[i])
		}
	}
	dec.Close()
	if live() != 0 {
		t.Fatalf("closed after the solve: %d buffers still live", live())
	}

	// A finished decoder hands its source slab over: Close then releases
	// the parity slab only, and the taker's Release the rest.
	dec, err = c.NewDecoder(benchSymLen)
	if err != nil {
		t.Fatal(err)
	}
	feed(dec, b0.Parity[:e], b0.Source[e:], b1.Parity[:e], b1.Source[e:])
	if !dec.Done() {
		t.Fatal("decoder not done")
	}
	slab := dec.TakeSources()
	if dec.Source(0) != nil {
		t.Fatal("Source still serves a slab the decoder no longer owns")
	}
	dec.Close()
	if live() != 4 {
		t.Fatalf("taken sources: %d live buffers, want the 4 of the source slab", live())
	}
	for i, want := range src {
		if string(slab.Slot(i)) != string(want) {
			t.Fatalf("taken slab: source %d differs", i)
		}
	}
	slab.Release()
	if live() != 0 {
		t.Fatalf("released: %d buffers still live", live())
	}
}

// TestStructuralReceiverTouchesNoPool guards the simulator's side of the
// slab change: the ID-only receiver the grid and fleet engines run on
// carries no payload state and never reaches the symbol pool.
func TestStructuralReceiverTouchesNoPool(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceilings gate the plain tier")
	}
	c, _ := codecFixture(t, 256)
	before := symbol.PoolStats()
	// The receiver, its two per-block tables and one bitmap per block.
	if avg, want := testing.AllocsPerRun(20, func() { c.NewReceiver() }), float64(3+c.NumBlocks()); avg > want {
		t.Errorf("NewReceiver allocs = %.0f, want <= %.0f", avg, want)
	}
	r := c.NewReceiver()
	for id := 0; id < c.Layout().N && !r.Receive(id); id++ {
	}
	if !r.Done() {
		t.Fatal("structural receiver did not finish")
	}
	if after := symbol.PoolStats(); after.Gets != before.Gets || after.Jumbos != before.Jumbos {
		t.Errorf("structural reception touched the symbol pool: %+v -> %+v", before, after)
	}
}
