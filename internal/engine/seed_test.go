package engine

// The seed derivation every engine stream uses (core.DeriveSeed): per
// trial, per sweep cell and per fleet receiver.

import (
	"testing"

	"fecperf/internal/core"
)

func TestDeriveSeedDistinctStreams(t *testing.T) {
	seen := map[int64]string{}
	record := func(s int64, label string) {
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between %s and %s", prev, label)
		}
		seen[s] = label
	}
	// Neighbouring trials, cells and bases must all map to distinct seeds.
	for base := int64(0); base < 4; base++ {
		record(core.DeriveSeed(base), "base")
		for tr := uint64(0); tr < 64; tr++ {
			record(core.DeriveSeed(base, tr), "trial")
		}
		for i := uint64(0); i < 8; i++ {
			for j := uint64(0); j < 8; j++ {
				record(core.DeriveSeed(base, i, j), "cell")
			}
		}
	}
}

func TestDeriveSeedOrderSensitive(t *testing.T) {
	if core.DeriveSeed(1, 2, 3) == core.DeriveSeed(1, 3, 2) {
		t.Fatal("(2,3) and (3,2) collide")
	}
	if core.DeriveSeed(1, 0) == core.DeriveSeed(1) {
		t.Fatal("explicit zero part collides with no parts")
	}
}

func TestDeriveSeedDeterministic(t *testing.T) {
	if core.DeriveSeed(42, 7, 9) != core.DeriveSeed(42, 7, 9) {
		t.Fatal("DeriveSeed not a pure function")
	}
}

func TestDeriveSeedAvalanche(t *testing.T) {
	// Adjacent identifiers must flip roughly half the output bits — the
	// property the old additive offsets (seed + t*7919) lacked, where
	// neighbouring trials differed by a constant and shared lattice
	// structure across the grid.
	popcount := func(x uint64) int {
		n := 0
		for ; x != 0; x &= x - 1 {
			n++
		}
		return n
	}
	for tr := uint64(0); tr < 100; tr++ {
		a := uint64(core.DeriveSeed(1, tr))
		b := uint64(core.DeriveSeed(1, tr+1))
		if d := popcount(a ^ b); d < 8 || d > 56 {
			t.Fatalf("trial %d→%d flipped only %d/64 bits", tr, tr+1, d)
		}
	}
}
