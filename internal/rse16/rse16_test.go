package rse16

import (
	"fmt"
	"math/rand"
	"testing"
)

func mustNew(t *testing.T, k, n int) *Code {
	t.Helper()
	c, err := New(Params{K: k, N: n})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	for _, p := range []Params{{K: 0, N: 10}, {K: 5, N: 5}, {K: 5, N: 3}, {K: 40000, N: 70000}} {
		if _, err := New(p); err == nil {
			t.Errorf("New(%+v) accepted", p)
		}
	}
}

func TestSingleBlockBeyondGF256Limit(t *testing.T) {
	// The whole point: a block size impossible for GF(2^8).
	c := mustNew(t, 2000, 5000)
	l := c.Layout()
	if len(l.Blocks) != 1 {
		t.Fatalf("%d blocks, want 1", len(l.Blocks))
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReceiverPureMDS(t *testing.T) {
	c := mustNew(t, 100, 250)
	rx := c.NewReceiver()
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(250)
	for i, id := range perm[:100] {
		done := rx.Receive(id)
		if i < 99 && done {
			t.Fatal("done before k packets")
		}
		if i == 99 && !done {
			t.Fatal("not done at exactly k distinct packets")
		}
	}
}

func TestReceiverDuplicates(t *testing.T) {
	c := mustNew(t, 3, 6)
	rx := c.NewReceiver()
	rx.Receive(5)
	rx.Receive(5)
	rx.Receive(5)
	if rx.Done() {
		t.Fatal("duplicates decoded the object")
	}
	if rx.SourceRecovered() != 0 {
		t.Fatalf("SourceRecovered = %d", rx.SourceRecovered())
	}
}

func TestReceiverOutOfRangePanics(t *testing.T) {
	c := mustNew(t, 3, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.NewReceiver().Receive(6)
}

func randPayloads(rng *rand.Rand, n, symLen int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, symLen)
		rng.Read(out[i])
	}
	return out
}

// decodeFrom feeds the (id, payload) pairs to a fresh payload decoder and
// returns copies of the sources it ends up holding (nil where it holds
// none) and whether it finished. The decoder rejects a bad id or a ragged
// payload by panicking; that comes back as err.
func decodeFrom(t *testing.T, c *Code, ids []int, payloads [][]byte) (out [][]byte, done bool, err error) {
	t.Helper()
	dec, err := c.NewDecoder(len(payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	for i, id := range ids {
		dec.ReceivePayload(id, payloads[i])
	}
	out = make([][]byte, c.Layout().K)
	for i := range out {
		if s := dec.Source(i); s != nil {
			out[i] = append([]byte(nil), s...)
		}
	}
	return out, dec.Done(), nil
}

func TestEncodeDecodeAnyKOfN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := mustNew(t, 20, 50)
	src := randPayloads(rng, 20, 16)
	parity, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(parity) != 30 {
		t.Fatalf("%d parity payloads, want 30", len(parity))
	}
	all := append(append([][]byte{}, src...), parity...)
	for trial := 0; trial < 25; trial++ {
		ids := rng.Perm(50)[:20]
		payloads := make([][]byte, 20)
		for i, id := range ids {
			payloads[i] = all[id]
		}
		dec, done, err := decodeFrom(t, c, ids, payloads)
		if err != nil || !done {
			t.Fatalf("trial %d: done=%v err=%v", trial, done, err)
		}
		for i := range src {
			for b := range src[i] {
				if dec[i][b] != src[i][b] {
					t.Fatalf("trial %d: source %d differs at byte %d", trial, i, b)
				}
			}
		}
	}
}

func TestDecodeFromParityOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := mustNew(t, 10, 25)
	src := randPayloads(rng, 10, 8)
	parity, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 10)
	payloads := make([][]byte, 10)
	for i := range ids {
		ids[i] = 10 + i
		payloads[i] = parity[i]
	}
	dec, done, err := decodeFrom(t, c, ids, payloads)
	if err != nil || !done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	for i := range src {
		for b := range src[i] {
			if dec[i][b] != src[i][b] {
				t.Fatalf("source %d differs", i)
			}
		}
	}
}

func TestDecodeInsufficient(t *testing.T) {
	c := mustNew(t, 10, 25)
	rng := rand.New(rand.NewSource(4))
	payloads := randPayloads(rng, 9, 8)
	ids := []int{10, 11, 12, 13, 14, 15, 16, 17, 18}
	if _, done, err := decodeFrom(t, c, ids, payloads); err != nil || done {
		t.Fatalf("done=%v err=%v with fewer than k symbols", done, err)
	}
}

func TestOddPayloadRejected(t *testing.T) {
	c := mustNew(t, 4, 10)
	src := [][]byte{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}}
	if _, err := c.Encode(src); err == nil {
		t.Fatal("odd payload length accepted")
	}
}

func TestEncodeValidation(t *testing.T) {
	c := mustNew(t, 4, 10)
	if _, err := c.Encode(make([][]byte, 3)); err == nil {
		t.Fatal("wrong source count accepted")
	}
	ragged := [][]byte{{1, 2}, {1, 2}, {1, 2, 3, 4}, {1, 2}}
	if _, err := c.Encode(ragged); err == nil {
		t.Fatal("ragged payloads accepted")
	}
}

func TestDecodeValidation(t *testing.T) {
	c := mustNew(t, 4, 10)
	sym := []byte{1, 2}
	if _, _, err := decodeFrom(t, c, []int{-1, 0, 1, 2}, [][]byte{sym, sym, sym, sym}); err == nil {
		t.Fatal("negative id accepted")
	}
	if _, _, err := decodeFrom(t, c, []int{10}, [][]byte{sym}); err == nil {
		t.Fatal("id past n accepted")
	}
	if _, _, err := decodeFrom(t, c, []int{0, 1}, [][]byte{sym, {1, 2, 3, 4}}); err == nil {
		t.Fatal("ragged payloads accepted")
	}
}

func TestNoCouponCollectorAtScale(t *testing.T) {
	// k=2000 over one block: a random reception of exactly k packets
	// always decodes (inefficiency 1.0) — the property the GF(2^8) codec
	// cannot have.
	c := mustNew(t, 2000, 5000)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		rx := c.NewReceiver()
		perm := rng.Perm(5000)
		for i, id := range perm[:2000] {
			done := rx.Receive(id)
			if done != (i == 1999) {
				t.Fatalf("trial %d: done=%v at packet %d", trial, done, i)
			}
		}
	}
}
