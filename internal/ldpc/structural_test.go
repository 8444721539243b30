package ldpc

import (
	"runtime"
	"testing"
	"unsafe"

	"fecperf/internal/symbol"
)

// bytesPerRun is testing.AllocsPerRun for bytes: the mean growth of
// runtime.MemStats.TotalAlloc over one call of f, after one warm-up call.
// Allocation *counts* cannot tell a table of 24 bytes per symbol from a
// 64-byte struct; bytes can.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestStructuralDecoderCarriesNoPayloadState guards the simulator's side
// of the slab change: the decoders the grid and fleet engines mint by the
// million (newDecoder(0)) must not pay for the payload datapath — no
// pool traffic, no payload tables, and a struct no larger than before the
// slabs were added (it shrank: the payload half moved behind one pointer).
func TestStructuralDecoderCarriesNoPayloadState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	c := mustNew(t, Params{K: 2000, N: 3000, Variant: Staircase, Seed: 1})
	if size := unsafe.Sizeof(Decoder{}); size > 144 {
		t.Errorf("Decoder is %d bytes, want <= 144 (its size class before slabs)", size)
	}
	before := symbol.PoolStats()
	// The struct, the known bitset and the equation table; the solve
	// queue is made on first use.
	if avg := testing.AllocsPerRun(20, func() { c.NewReceiver() }); avg > 4 {
		t.Errorf("NewReceiver allocs = %.0f, want <= 4", avg)
	}
	// 8 688 bytes: one bit per variable and eight bytes per equation, in
	// size classes (11 376 with a byte per variable). The simulator resets
	// one such decoder per shard; the wire builds one per LDGM object.
	if got := bytesPerRun(20, func() { c.NewReceiver() }); got > 8688*1.01 {
		t.Errorf("NewReceiver allocates %.0f bytes, want <= 8688 + 1 %%", got)
	}
	r := c.NewReceiver()
	for id := 0; id < c.Layout().N && !r.Receive(id); id++ {
	}
	if !r.Done() {
		t.Fatal("structural decoder did not finish")
	}
	if d := r.(*Decoder); d.pay != nil {
		t.Error("structural decoder carries payload state")
	}
	if after := symbol.PoolStats(); after.Gets != before.Gets || after.Jumbos != before.Jumbos {
		t.Errorf("structural decode touched the symbol pool: %+v -> %+v", before, after)
	}
}

// TestPayloadDecoderStateIsFlat: a payload decoder's fixed state is the
// structural tables plus one first-touch bit per equation and two slab
// buffer tables — no slice header per symbol or per equation (24 bytes
// each: 110 KiB at this geometry, twelve times the real state).
func TestPayloadDecoderStateIsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	c := mustNew(t, Params{K: 2048, N: 3072, Variant: Staircase, Seed: 1})
	// 9 104 bytes (12 688 with a byte per variable and per equation).
	if got := bytesPerRun(20, func() { c.NewPayloadDecoder(128).Close() }); got > 9104*1.02 {
		t.Errorf("NewPayloadDecoder allocates %.0f bytes, want <= 9104 + 2 %%", got)
	}
}
