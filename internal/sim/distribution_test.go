package sim

// Distribution-equivalence tests for the streaming scheduler refactor:
// the Feistel-permutation schedules must be statistically
// indistinguishable from the materialised Fisher–Yates shuffles the
// paper's models were first implemented with. Each test runs the same
// measurement with the streaming model and with a reference
// slice-shuffling scheduler and compares the aggregate inefficiency;
// with 1500 trials the standard error of the mean is ≈0.002, so a 0.01
// tolerance is a ≈5σ test that still fails loudly on any systematic
// bias (a skewed subset draw, a non-uniform permutation, a truncation
// off-by-one).

import (
	"math"
	"math/rand"
	"testing"

	"fecperf/internal/channel"
	"fecperf/internal/core"
	"fecperf/internal/engine"
	"fecperf/internal/ldpc"
	"fecperf/internal/sched"
)

// refScheduler materialises a Fisher–Yates implementation of a paper
// model — the pre-streaming ground truth.
type refScheduler struct {
	name string
	draw func(l core.Layout, rng *rand.Rand) []int
}

func (r refScheduler) Name() string { return r.name }
func (r refScheduler) Schedule(l core.Layout, rng *rand.Rand) core.Schedule {
	return core.SliceSchedule(r.draw(l, rng))
}

func refShuffle(ids []int, rng *rand.Rand) []int {
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

func refRange(lo, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func TestStreamingSchedulesMatchReferenceDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution comparison needs trials")
	}
	c, err := ldpc.New(ldpc.Params{K: 200, N: 500, Variant: ldpc.Staircase, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		streaming core.Scheduler
		reference refScheduler
	}{
		{sched.TxModel2{}, refScheduler{"ref-tx2", func(l core.Layout, rng *rand.Rand) []int {
			return append(refRange(0, l.K), refShuffle(refRange(l.K, l.N-l.K), rng)...)
		}}},
		{sched.TxModel4{}, refScheduler{"ref-tx4", func(l core.Layout, rng *rand.Rand) []int {
			return refShuffle(refRange(0, l.N), rng)
		}}},
		{sched.TxModel6{}, refScheduler{"ref-tx6", func(l core.Layout, rng *rand.Rand) []int {
			nSrc := int(0.20*float64(l.K) + 0.5)
			src := refShuffle(refRange(0, l.K), rng)[:nSrc]
			return refShuffle(append(src, refRange(l.K, l.N-l.K)...), rng)
		}}},
	}
	const trials = 1500
	run := func(s core.Scheduler, seed int64) engine.Aggregate {
		return runOn(engine.PointSpec{
			Code:      c,
			Scheduler: s,
			Channel:   channel.GilbertChannel(0.1, 0.5),
			Trials:    trials,
			Seed:      seed,
		}, 4)
	}
	for _, pair := range pairs {
		want := run(pair.reference, 1)
		got := run(pair.streaming, 2)
		if got.Trials != trials || want.Trials != trials {
			t.Fatalf("%s: trial counts %d / %d", pair.streaming.Name(), got.Trials, want.Trials)
		}
		if d := math.Abs(got.MeanIneff() - want.MeanIneff()); d > 0.01 {
			t.Errorf("%s: streaming mean inefficiency %.5f vs reference %.5f (Δ %.5f)",
				pair.streaming.Name(), got.MeanIneff(), want.MeanIneff(), d)
		}
		if d := math.Abs(got.ReceivedOverK.Mean() - want.ReceivedOverK.Mean()); d > 0.02 {
			t.Errorf("%s: streaming received/k %.5f vs reference %.5f (Δ %.5f)",
				pair.streaming.Name(), got.ReceivedOverK.Mean(), want.ReceivedOverK.Mean(), d)
		}
	}
}
