package ldpc

import (
	"math/rand"
	"testing"

	"fecperf/internal/channel"
	"fecperf/internal/core"
	"fecperf/internal/sched"
)

func benchCode(b *testing.B, v Variant, k int) *Code {
	b.Helper()
	c, err := New(Params{K: k, N: k * 5 / 2, Variant: v, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkConstructionStaircase20k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(Params{K: 20000, N: 50000, Variant: Staircase, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConstructionTriangle20k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(Params{K: 20000, N: 50000, Variant: Triangle, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkStructuralDecode runs k = 20 000, ratio 2.5 trials the way the
// plan engine does: a tx4 schedule drawn per trial, Gilbert(0.05, 0.5)
// losses 64 transmissions at a time, and one receiver and one core.Trial
// reused across trials.
func benchmarkStructuralDecode(b *testing.B, v Variant) {
	c := benchCode(b, v, 20000)
	st, _ := channel.GilbertChannel(0.05, 0.5).Stepper()
	src := &core.SplitMixSource{}
	rng := rand.New(src)
	rx := c.NewReceiver()
	var (
		chain channel.Chain
		trial core.Trial
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Seed(int64(i))
		schedule := sched.TxModel4{}.Schedule(c.Layout(), rng)
		chain = st.Chain(src.State())
		rx.(core.Resetter).Reset()
		if !trial.Run(schedule, &chain, rx, 0).Decoded {
			b.Fatal("decode failed")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

func BenchmarkStructuralDecodeStaircase20k(b *testing.B) { benchmarkStructuralDecode(b, Staircase) }
func BenchmarkStructuralDecodeTriangle20k(b *testing.B)  { benchmarkStructuralDecode(b, Triangle) }

func BenchmarkGaussDecodable(b *testing.B) {
	c := benchCode(b, Staircase, 400)
	rng := rand.New(rand.NewSource(3))
	received := make([]bool, 1000)
	for _, id := range rng.Perm(1000)[:450] {
		received[id] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.GaussDecodable(received)
	}
}
