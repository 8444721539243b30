package main

import (
	"os"
	"path/filepath"
	"testing"

	"fecperf/internal/recommend"
)

// TestSizeNSentCapsAtTheCodesN: segmented RSE rounds parity per block, so
// its n is not int(ratio·k); the cap must be what the sender can send.
func TestSizeNSentCapsAtTheCodesN(t *testing.T) {
	for _, tc := range []struct{ k, n int }{{1000, 1502}, {20000, 30030}} {
		best := recommend.Result{Tuple: recommend.Tuple{Code: "rse", TxModel: "tx5", Ratio: 1.5}, Ineff: 1.4}
		nsent, n, err := sizeNSent(best, recommend.Config{K: tc.k, Seed: 1}, 0.2, 100)
		if err != nil {
			t.Fatal(err)
		}
		if n != tc.n || nsent != tc.n {
			t.Errorf("k=%d: n_sent %d of %d, want the cap %d of %d", tc.k, nsent, n, tc.n, tc.n)
		}
	}
}

func TestEstimateFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.txt")
	// 1 loss in 10 packets, alternating-ish.
	content := "0\n0\n0\n1\n0\n0\n0\n0\n0\n0\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	p, q, err := estimateFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || p > 0.5 {
		t.Fatalf("p = %g", p)
	}
	if q != 1 {
		t.Fatalf("q = %g, want 1 (every loss followed by a reception)", q)
	}
}

func TestEstimateFromFileRejectsJunk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(path, []byte("0\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := estimateFromFile(path); err == nil {
		t.Fatal("junk trace accepted")
	}
}

func TestEstimateFromFileMissing(t *testing.T) {
	if _, _, err := estimateFromFile("/nonexistent/file"); err == nil {
		t.Fatal("missing file accepted")
	}
}
