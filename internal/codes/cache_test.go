package codes

import (
	"testing"

	"fecperf/internal/wire"
)

// TestCacheKeepsHotCodecUnderChurn interleaves one legitimate geometry
// with 1 000 forged ones, each a fresh seed (what a flood of forged
// headers makes a receiver look up): the legitimate key's instance must
// never be rebuilt, and the cache must never hold more than its bound.
func TestCacheKeepsHotCodecUnderChurn(t *testing.T) {
	hot, err := CachedForWire(wire.CodeLDGMStaircase, 100, 150, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 1000; i++ {
		if _, err := CachedForWire(wire.CodeLDGMStaircase, 8, 12, 1_000_000+i); err != nil {
			t.Fatal(err)
		}
		c, err := CachedForWire(wire.CodeLDGMStaircase, 100, 150, 7)
		if err != nil {
			t.Fatal(err)
		}
		if c != hot {
			t.Fatalf("after %d forged keys the hot codec was rebuilt", i+1)
		}
		codecMu.RLock()
		size := len(codecCache)
		codecMu.RUnlock()
		if size > codecCacheMax {
			t.Fatalf("after %d forged keys the cache holds %d entries, bound %d", i+1, size, codecCacheMax)
		}
	}
}
