package sched

import (
	"math/rand"
	"testing"

	"fecperf/internal/core"
)

// The benchmarks compare the streaming schedules against the original
// materialised implementations (kept below as the "old" baselines):
// drawing a streaming schedule allocates nothing and costs O(1), where
// the old path allocated and shuffled an O(n) slice per draw — per
// trial, per carousel round, per sender object.

func benchLayout() core.Layout {
	return ldgmLayout(20000, 50000)
}

var benchSink int

// benchDraw measures drawing one streaming schedule (the per-trial /
// per-round hot-path cost). Expect 0 allocs/op.
func benchDraw(b *testing.B, s core.Scheduler) {
	l := benchLayout()
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := s.Schedule(l, r)
		benchSink += sc.Len()
	}
}

// benchWalk measures a draw plus a full sequential evaluation through a
// Cursor — how RunTrial, the session sender and the transport carousel
// actually walk a schedule. The cursor draws ids in batches, amortising
// the Feistel walk's serial latency across interleaved lanes; expect 0
// allocs/op.
func benchWalk(b *testing.B, s core.Scheduler) {
	l := benchLayout()
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := s.Schedule(l, r)
		cur := sc.Cursor()
		for {
			id, ok := cur.Next()
			if !ok {
				break
			}
			benchSink += id
		}
	}
}

// benchWalkAt is the same walk through per-position At calls — the
// random-access path, kept as its own row so the batched-cursor gain
// over it stays visible.
func benchWalkAt(b *testing.B, s core.Scheduler) {
	l := benchLayout()
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := s.Schedule(l, r)
		for j := 0; j < sc.Len(); j++ {
			benchSink += sc.At(j)
		}
	}
}

func BenchmarkScheduleDrawTx1(b *testing.B) { benchDraw(b, TxModel1{}) }
func BenchmarkScheduleDrawTx2(b *testing.B) { benchDraw(b, TxModel2{}) }
func BenchmarkScheduleDrawTx4(b *testing.B) { benchDraw(b, TxModel4{}) }
func BenchmarkScheduleDrawTx6(b *testing.B) { benchDraw(b, TxModel6{}) }

func BenchmarkScheduleWalkTx2(b *testing.B) { benchWalk(b, TxModel2{}) }
func BenchmarkScheduleWalkTx4(b *testing.B) { benchWalk(b, TxModel4{}) }
func BenchmarkScheduleWalkTx6(b *testing.B) { benchWalk(b, TxModel6{}) }

func BenchmarkScheduleWalkAtTx4(b *testing.B) { benchWalkAt(b, TxModel4{}) }

func BenchmarkScheduleWalkTx5MultiBlock(b *testing.B) {
	l := rseLayout(196, 102, 153)
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := TxModel5{}.Schedule(l, r)
		for j := 0; j < sc.Len(); j++ {
			benchSink += sc.At(j)
		}
	}
}

// --- old materialised baselines -------------------------------------

// oldScheduler is the pre-streaming implementation shape: build the
// full []int order up front.
type oldScheduler func(l core.Layout, rng *rand.Rand) []int

func oldSequentialSource(l core.Layout) []int {
	out := make([]int, l.K)
	for i := range out {
		out[i] = i
	}
	return out
}

func oldSequentialParity(l core.Layout) []int {
	out := make([]int, l.N-l.K)
	for i := range out {
		out[i] = l.K + i
	}
	return out
}

func oldShuffled(ids []int, rng *rand.Rand) []int {
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

func oldTx2(l core.Layout, rng *rand.Rand) []int {
	return append(oldSequentialSource(l), oldShuffled(oldSequentialParity(l), rng)...)
}

func oldTx4(l core.Layout, rng *rand.Rand) []int {
	out := make([]int, l.N)
	for i := range out {
		out[i] = i
	}
	return oldShuffled(out, rng)
}

func oldTx6(l core.Layout, rng *rand.Rand) []int {
	nSrc := int(0.20*float64(l.K) + 0.5)
	src := oldShuffled(oldSequentialSource(l), rng)[:nSrc]
	return oldShuffled(append(src, oldSequentialParity(l)...), rng)
}

func benchOldDraw(b *testing.B, s oldScheduler) {
	l := benchLayout()
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(s(l, r))
	}
}

func benchOldWalk(b *testing.B, s oldScheduler) {
	l := benchLayout()
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range s(l, r) {
			benchSink += id
		}
	}
}

func BenchmarkScheduleDrawOldTx2(b *testing.B) { benchOldDraw(b, oldTx2) }
func BenchmarkScheduleDrawOldTx4(b *testing.B) { benchOldDraw(b, oldTx4) }
func BenchmarkScheduleDrawOldTx6(b *testing.B) { benchOldDraw(b, oldTx6) }

func BenchmarkScheduleWalkOldTx2(b *testing.B) { benchOldWalk(b, oldTx2) }
func BenchmarkScheduleWalkOldTx4(b *testing.B) { benchOldWalk(b, oldTx4) }
func BenchmarkScheduleWalkOldTx6(b *testing.B) { benchOldWalk(b, oldTx6) }
