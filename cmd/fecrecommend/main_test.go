package main

import (
	"os"
	"path/filepath"
	"testing"

	"fecperf/internal/recommend"
)

// TestSizeNSentCapsAtTheCodesN: segmented RSE rounds parity per block, so
// its n is not int(ratio·k); the cap must be what the sender can send.
// LDGM's n is int(ratio·k + 0.5), here above Equation 3's ⌈1.4·1000/0.8⌉ + 100.
func TestSizeNSentCapsAtTheCodesN(t *testing.T) {
	for _, tc := range []struct {
		code        string
		ratio       float64
		k, n, nsent int
	}{
		{"rse", 1.5, 1000, 1502, 1502},
		{"rse", 1.5, 20000, 30030, 30030},
		{"ldgm-staircase", 2.5, 1000, 2500, 1850},
	} {
		best := recommend.Result{Tuple: recommend.Tuple{Code: tc.code, TxModel: "tx5", Ratio: tc.ratio}, Ineff: 1.4}
		nsent, n, err := sizeNSent(best, recommend.Config{K: tc.k, Seed: 1}, 0.2, 100)
		if err != nil {
			t.Fatal(err)
		}
		if n != tc.n || nsent != tc.nsent {
			t.Errorf("%s k=%d: n_sent %d of %d, want %d of %d", tc.code, tc.k, nsent, n, tc.nsent, tc.n)
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
