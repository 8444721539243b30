package gf65536

import "testing"

// TestXorDispatchNotSlowerThanScalar is the regression guard for the
// earlier finding that the old 4-lane unrolled Xor benchmarked
// slower than the plain range loop: the dispatched kernel must never
// lose to XorScalar again. Measured with testing.Benchmark so the guard
// is robust to the noise of single-iteration CI bench smokes; skipped
// under -short and the race detector, where timing means nothing.
func TestXorDispatchNotSlowerThanScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing guard skipped under the race detector")
	}
	const n = 32 * 1024 // 64 KiB, the codec bench shape
	speed := func(f func(dst, src []uint16)) float64 {
		dst := make([]uint16, n)
		src := make([]uint16, n)
		for i := range src {
			src[i] = uint16(i*31 + 7)
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.SetBytes(2 * n)
			for i := 0; i < b.N; i++ {
				f(dst, src)
			}
		})
		return float64(2*n) * float64(r.N) / r.T.Seconds()
	}
	xor, scalar := speed(Xor), speed(XorScalar)
	// 0.9: the dispatched tier must at least match scalar, with a small
	// allowance for run-to-run noise. It currently wins by >10x.
	if xor < 0.9*scalar {
		t.Fatalf("dispatched Xor %.0f MB/s is slower than XorScalar %.0f MB/s",
			xor/1e6, scalar/1e6)
	}
}
