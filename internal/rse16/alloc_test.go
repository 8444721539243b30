package rse16

import (
	"math/rand"
	"testing"

	"fecperf/internal/symbol"
)

// Alloc ceilings for the hot codec paths. Each EncodeInto and SolveBlock
// call cuts all its matrix and symbol scratch from one []uint16, so the
// steady state is that allocation plus a handful of slice headers — the
// ceilings here are deliberately loose versions of that, and far below
// the per-row baseline (50 encode / 131 decode allocs/op).

func encodeDecodeFixture(tb testing.TB, k, n, payLen int) (*Code, [][]byte) {
	tb.Helper()
	c, err := New(Params{K: k, N: n})
	if err != nil {
		tb.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(11))
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, payLen)
		rnd.Read(src[i])
	}
	return c, src
}

func TestEncodeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceilings gate the plain tier")
	}
	c, src := encodeDecodeFixture(t, 16, 24, 512)
	run := func() {
		parity, err := c.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		symbol.PutAll(parity)
	}
	run() // warm the pools and build the generator
	if avg := testing.AllocsPerRun(50, run); avg > 8 {
		t.Errorf("Encode allocs/op = %.1f, want <= 8", avg)
	}
}

func TestDecodeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceilings gate the plain tier")
	}
	c, src := encodeDecodeFixture(t, 16, 24, 512)
	parity, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	defer symbol.PutAll(parity)

	// Parity-heavy delivery: drop half the sources so decode must invert.
	run := func() {
		dec, err := c.NewDecoder(512)
		if err != nil {
			t.Fatal(err)
		}
		done := false
		for id := 8; id < 24 && !done; id++ {
			var pay []byte
			if id < 16 {
				pay = src[id]
			} else {
				pay = parity[id-16]
			}
			done = dec.ReceivePayload(id, pay)
		}
		if !done {
			t.Fatal("decoder did not finish from 16 of 24 symbols")
		}
		for i := 0; i < 16; i++ {
			if dec.Source(i) == nil {
				t.Fatalf("source %d missing", i)
			}
		}
		dec.Close()
	}
	run() // warm the pools
	if avg := testing.AllocsPerRun(50, run); avg > 24 {
		t.Errorf("decode allocs/op = %.1f, want <= 24", avg)
	}
}
