package ldpc

import (
	"testing"
	"unsafe"

	"fecperf/internal/symbol"
)

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
	// The struct and the known/unknown/xorID tables; the propagation
	// stack grows on first use.
	if avg := testing.AllocsPerRun(20, func() { c.NewReceiver() }); avg > 4 {
		t.Errorf("NewReceiver allocs = %.0f, want <= 4", avg)
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
