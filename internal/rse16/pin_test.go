package rse16

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// sum hashes payloads in order, each prefixed with its length.
func sum(payloads [][]byte) string {
	h := sha256.New()
	for _, p := range payloads {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestParityBytesPinned pins the bytes rse16 puts on the wire (CodeRSE16)
// and the sources it solves back. 4096-byte symbols are 2048-element
// rows, long enough that a table-driven kernel tier would have carried
// both the encode accumulation and the decode solve; the hashes were
// recorded on the log/exp kernels and must not move with any kernel
// change.
func TestParityBytesPinned(t *testing.T) {
	const k, n, symLen = 8, 12, 4096
	c := mustNew(t, k, n)
	src := randPayloads(rand.New(rand.NewSource(28)), k, symLen)
	parity, err := c.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sum(parity), "98a170d1059a1814"; got != want {
		t.Errorf("parity: got %s, want %s", got, want)
	}

	// Sources 0, 2, 4, 6 plus all four parity symbols: the solve must
	// rebuild sources 1, 3, 5, 7.
	ids := []int{0, 2, 4, 6, 8, 9, 10, 11}
	payloads := [][]byte{src[0], src[2], src[4], src[6], parity[0], parity[1], parity[2], parity[3]}
	dec, done, err := decodeFrom(t, c, ids, payloads)
	if err != nil || !done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	if got, want := sum(dec), "5e76c6be76fd7c49"; got != want {
		t.Errorf("decoded sources: got %s, want %s", got, want)
	}
}
