package ldpc

import (
	"math/rand"
	"testing"
)

// findStalledPattern searches for a reception pattern on which peeling
// stalls but Gaussian elimination succeeds, and returns the ids received.
func findStalledPattern(t *testing.T, c *Code, rng *rand.Rand) []int {
	t.Helper()
	l := c.Layout()
	for trial := 0; trial < 400; trial++ {
		nRecv := l.K + rng.Intn(l.K/4)
		ids := rng.Perm(l.N)[:nRecv]
		rx := c.NewReceiver()
		done := false
		received := make([]bool, l.N)
		for _, id := range ids {
			received[id] = true
			if rx.Receive(id) {
				done = true
				break
			}
		}
		if !done && c.GaussDecodable(received) {
			return ids
		}
	}
	t.Skip("no stalled-but-ML-decodable pattern found at this size")
	return nil
}

func TestSolveGaussCompletesStalledStructuralDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := mustNew(t, Params{K: 60, N: 150, Variant: Staircase, Seed: 2})
	ids := findStalledPattern(t, c, rng)

	d := c.NewReceiver().(*Decoder)
	for _, id := range ids {
		d.Receive(id)
	}
	if d.Done() {
		t.Fatal("pattern unexpectedly decoded by peeling")
	}
	if !d.SolveGauss() {
		t.Fatal("SolveGauss failed on an ML-decodable pattern")
	}
	if d.SourceRecovered() != 60 {
		t.Fatalf("SourceRecovered = %d after SolveGauss", d.SourceRecovered())
	}
}

func TestSolveGaussRecoversPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := mustNew(t, Params{K: 60, N: 150, Variant: Staircase, Seed: 2})
	ids := findStalledPattern(t, c, rng)

	src := make([][]byte, 60)
	for i := range src {
		src[i] = make([]byte, 8)
		rng.Read(src[i])
	}
	parity, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([][]byte{}, src...), parity...)

	d := c.NewPayloadDecoder(8)
	defer d.Close()
	feedBorrowed(d, all, ids, rng)
	if d.Done() {
		t.Fatal("pattern unexpectedly decoded by peeling")
	}
	parityBefore := knownParity(d)
	if !d.SolveGauss() {
		t.Fatal("SolveGauss failed")
	}
	// Elimination solves parity symbols along with the sources; their
	// values exist only in its scratch while peeling consumes them.
	if knownParity(d) == parityBefore {
		t.Fatal("the pattern's residual system held no parity symbol")
	}
	for i := range src {
		got := d.Source(i)
		if got == nil {
			t.Fatalf("source %d missing after SolveGauss", i)
		}
		for b := range src[i] {
			if got[b] != src[i][b] {
				t.Fatalf("source %d corrupted at byte %d: got %d want %d", i, b, got[b], src[i][b])
			}
		}
	}
}

func TestSolveGaussNoopWhenDone(t *testing.T) {
	c := mustNew(t, Params{K: 10, N: 25, Variant: Triangle, Seed: 4})
	d := c.NewReceiver().(*Decoder)
	for id := 0; id < 10; id++ {
		d.Receive(id)
	}
	if !d.SolveGauss() {
		t.Fatal("SolveGauss returned false on a completed decode")
	}
}

func TestSolveGaussInsufficientPackets(t *testing.T) {
	// Fewer than k packets: elimination must not pretend success, and the
	// decoder must stay usable for further packets.
	c := mustNew(t, Params{K: 40, N: 100, Variant: Staircase, Seed: 5})
	d := c.NewReceiver().(*Decoder)
	for id := 0; id < 20; id++ {
		d.Receive(id)
	}
	if d.SolveGauss() {
		t.Fatal("SolveGauss claimed success with 20 < k packets")
	}
	// Continue delivering: decode must still complete.
	for id := 20; id < 40; id++ {
		d.Receive(id)
	}
	if !d.Done() {
		t.Fatal("decoder unusable after failed SolveGauss")
	}
}

func TestSolveGaussMatchesGaussDecodablePrediction(t *testing.T) {
	// Over many random patterns: SolveGauss succeeds exactly when
	// GaussDecodable says the pattern is ML-decodable.
	rng := rand.New(rand.NewSource(6))
	c := mustNew(t, Params{K: 40, N: 100, Variant: Triangle, Seed: 7})
	for trial := 0; trial < 60; trial++ {
		nRecv := 40 + rng.Intn(25)
		ids := rng.Perm(100)[:nRecv]
		received := make([]bool, 100)
		d := c.NewReceiver().(*Decoder)
		for _, id := range ids {
			received[id] = true
			d.Receive(id)
		}
		want := c.GaussDecodable(received)
		got := d.SolveGauss()
		if got != want {
			t.Fatalf("trial %d: SolveGauss=%v but GaussDecodable=%v", trial, got, want)
		}
	}
}

func BenchmarkSolveGaussResidual(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	c, err := New(Params{K: 500, N: 1250, Variant: Staircase, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	// A pattern slightly above k that typically stalls peeling partway.
	ids := rng.Perm(1250)[:560]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := c.NewReceiver().(*Decoder)
		for _, id := range ids {
			if d.Receive(id) {
				break
			}
		}
		d.SolveGauss()
	}
}
