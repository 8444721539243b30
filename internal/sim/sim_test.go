// Package sim holds no code: the one-point and (p, q)-sweep harness it
// used to adapt lives in internal/engine (RunPoint, SweepPlan, Grid,
// PaperGrid). These are that harness's behaviour checks, values unedited,
// kept at their old import path so the tier-1 test names a driver pins do
// not move; fold the file into internal/engine when they may.
package sim

import (
	"context"
	"math"
	"testing"

	"fecperf/internal/channel"
	"fecperf/internal/core"
	"fecperf/internal/engine"
	"fecperf/internal/ldpc"
	"fecperf/internal/rse"
	"fecperf/internal/sched"
)

func staircase(t *testing.T, k int, ratio float64) core.Code {
	t.Helper()
	c, err := ldpc.New(ldpc.Params{K: k, N: int(float64(k) * ratio), Variant: ldpc.Staircase, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// run executes one point sequentially; runOn on the given worker count.
func run(spec engine.PointSpec) engine.Aggregate { return runOn(spec, 1) }

// sweep runs a Gilbert grid sweep of the one-code plan over ps × qs.
func sweep(t *testing.T, plan engine.Plan, ps, qs []float64, workers int) *engine.Grid {
	t.Helper()
	g, err := engine.SweepPlan(context.Background(), plan, "gilbert", ps, qs, engine.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runPlan runs a plan whose points are all valid.
func runPlan(t *testing.T, plan engine.Plan) []engine.PointResult {
	t.Helper()
	res, err := engine.Run(context.Background(), plan, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runOn(spec engine.PointSpec, workers int) engine.Aggregate {
	agg, _ := engine.RunPoint(context.Background(), spec, workers)
	return agg
}

func TestRunNoLossTx1IsPerfect(t *testing.T) {
	// Figure 8 observation: with p=0 and Tx_model_1 the inefficiency is
	// exactly 1.0 for every code (all source packets arrive first).
	codes := []core.Code{staircase(t, 200, 2.5)}
	if rc, err := rse.New(rse.Params{K: 200, N: 500}); err == nil {
		codes = append(codes, rc)
	} else {
		t.Fatal(err)
	}
	for _, c := range codes {
		agg := run(engine.PointSpec{Code: c, Scheduler: sched.TxModel1{}, Channel: channel.NoLossChannel(), Trials: 5, Seed: 1})
		if agg.Failed() {
			t.Fatalf("%s: trial failed on perfect channel", c.Name())
		}
		if got := agg.MeanIneff(); got != 1.0 {
			t.Fatalf("%s: inefficiency %g, want exactly 1.0", c.Name(), got)
		}
	}
}

func TestRunDeterministicInSeed(t *testing.T) {
	c := staircase(t, 100, 2.5)
	cfg := engine.PointSpec{Code: c, Scheduler: sched.TxModel4{}, Channel: channel.GilbertChannel(0.1, 0.5), Trials: 20, Seed: 99}
	a := run(cfg)
	b := run(cfg)
	if a.MeanIneff() != b.MeanIneff() || a.Failures != b.Failures {
		t.Fatalf("same seed produced different aggregates: %v vs %v", a, b)
	}
	cfg.Seed = 100
	cbis := run(cfg)
	if cbis.MeanIneff() == a.MeanIneff() {
		t.Fatal("different seeds produced identical means (suspicious)")
	}
}

func TestRunCountsFailures(t *testing.T) {
	// A brutal channel (p=1, q=0) after the first packet: nothing decodes.
	c := staircase(t, 50, 1.5)
	agg := run(engine.PointSpec{Code: c, Scheduler: sched.TxModel1{}, Channel: channel.GilbertChannel(1, 0), Trials: 10, Seed: 3})
	if !agg.Failed() || agg.Failures != 10 {
		t.Fatalf("failures = %d, want 10", agg.Failures)
	}
	if agg.String() != "-" {
		t.Fatalf("failed cell renders %q, want \"-\"", agg.String())
	}
}

func TestRunNSentTruncationCausesFailure(t *testing.T) {
	// Sending only half the source packets of a no-parity schedule can
	// never decode.
	c := staircase(t, 100, 2.5)
	agg := run(engine.PointSpec{Code: c, Scheduler: sched.TxModel1{}, Channel: channel.NoLossChannel(), Trials: 3, Seed: 4, NSent: 50})
	if !agg.Failed() {
		t.Fatal("expected failures with truncated transmission")
	}
}

func TestReceivedOverKTracksChannel(t *testing.T) {
	c := staircase(t, 200, 2.0)
	agg := run(engine.PointSpec{Code: c, Scheduler: sched.TxModel4{}, Channel: channel.GilbertChannel(0.5, 0.5), Trials: 50, Seed: 5})
	// n_received/k should hover near (1 - 0.5) * n/k = 1.0.
	if got := agg.ReceivedOverK.Mean(); math.Abs(got-1.0) > 0.05 {
		t.Fatalf("ReceivedOverK mean %g, want ≈1.0", got)
	}
}

func TestAggregateStringFormatsRatio(t *testing.T) {
	c := staircase(t, 100, 2.5)
	agg := run(engine.PointSpec{Code: c, Scheduler: sched.TxModel2{}, Channel: channel.NoLossChannel(), Trials: 2, Seed: 6})
	if agg.String() != "1.000" {
		t.Fatalf("String = %q, want 1.000", agg.String())
	}
}

func TestSweepShapeAndDeterminism(t *testing.T) {
	plan := engine.Plan{Codes: []string{"ldgm-staircase"}, Ks: []int{80}, Ratios: []float64{2.5}, Schedulers: []string{"tx4"}, Trials: 10, Seed: 7}
	ps, qs := []float64{0, 0.2}, []float64{0.5, 1}
	g1 := sweep(t, plan, ps, qs, 3)
	g2 := sweep(t, plan, ps, qs, 3)
	if len(g1.Cells) != 2 || len(g1.Cells[0]) != 2 {
		t.Fatalf("grid shape %dx%d, want 2x2", len(g1.Cells), len(g1.Cells[0]))
	}
	for i := range g1.Cells {
		for j := range g1.Cells[i] {
			a, b := g1.At(i, j), g2.At(i, j)
			if a.MeanIneff() != b.MeanIneff() || a.Failures != b.Failures {
				t.Fatalf("cell (%d,%d) differs across identical sweeps", i, j)
			}
		}
	}
	// p=0 row must be perfect for tx4? Not necessarily 1.0 (random order),
	// but it must decode.
	if g1.At(0, 0).Failed() {
		t.Fatal("p=0 cell failed")
	}
}

func TestSweepDefaultsToPaperGrid(t *testing.T) {
	plan := engine.Plan{Codes: []string{"ldgm-staircase"}, Ks: []int{30}, Ratios: []float64{2.5}, Schedulers: []string{"tx2"}, Trials: 1, Seed: 8}
	g := sweep(t, plan, nil, nil, 0)
	if len(g.P) != 14 || len(g.Q) != 14 {
		t.Fatalf("default grid %dx%d, want 14x14", len(g.P), len(g.Q))
	}
	// One axis given, the other the paper's: fig7's shape.
	g = sweep(t, plan, []float64{0, 0.01}, nil, 0)
	if len(g.Cells) != 2 || len(g.Cells[1]) != 14 || g.Q[13] != 1 {
		t.Fatalf("grid %dx%d over q=%v, want 2x14 over the paper's axis", len(g.Cells), len(g.Cells[1]), g.Q)
	}
}

func TestRunPanicsOnIncompleteConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run with nil fields did not panic")
		}
	}()
	run(engine.PointSpec{})
}

func TestRunGoldenAggregate(t *testing.T) {
	// Golden values for the engine's hash-based (splitmix64) seed
	// derivation, the streaming (Feistel-permutation) schedulers, and
	// the O(1)-seed SplitMixSource trial generator.
	// This pins the exact per-trial rand streams: any change to
	// DeriveSeed, the shard size's merge tree, the schedulers' seed
	// draws, or the trial loop that silently shifts results will trip
	// it. Regenerate by printing the values below if the derivation is
	// changed *intentionally* (last re-recorded for the streaming
	// schedule refactor; distribution_test.go checks the new streams
	// stay statistically faithful to the originals).
	c, err := ldpc.New(ldpc.Params{K: 200, N: 500, Variant: ldpc.Staircase, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	agg := run(engine.PointSpec{
		Code:      c,
		Scheduler: sched.TxModel2{},
		Channel:   channel.GilbertChannel(0.1, 0.5),
		Trials:    40,
		Seed:      1234,
	})
	if agg.Trials != 40 || agg.Failures != 0 {
		t.Fatalf("trials=%d failures=%d, want 40/0", agg.Trials, agg.Failures)
	}
	check := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %.17g, want %.17g", name, got, want)
		}
	}
	check("mean inefficiency", agg.MeanIneff(), 1.1407500000000002)
	check("mean received/k", agg.ReceivedOverK.Mean(), 2.0913750000000002)
	check("inefficiency variance", agg.Ineff.Var(), 0.0027058333333333366)
}

func TestRunIdenticalAcrossWorkerCounts(t *testing.T) {
	c := staircase(t, 100, 2.5)
	cfg := engine.PointSpec{Code: c, Scheduler: sched.TxModel4{}, Channel: channel.GilbertChannel(0.1, 0.5), Trials: 30, Seed: 5}
	base := run(cfg)
	for _, w := range []int{2, 4, 8} {
		if got := runOn(cfg, w); got != base {
			t.Fatalf("workers=%d aggregate differs: %+v vs %+v", w, got, base)
		}
	}
}

func TestSweepCustomFactory(t *testing.T) {
	// A plan's channel axis takes any channel family; an explicit Markov
	// model on the degenerate two-state spec behaves like the Gilbert
	// chain it encodes.
	plan := engine.Plan{Codes: []string{"ldgm-staircase"}, Ks: []int{80}, Ratios: []float64{2.5}, Schedulers: []string{"tx2"}, Trials: 5, Seed: 9}
	for _, p := range []float64{0, 0.1} {
		for _, q := range []float64{0.5, 1} {
			plan.Channels = append(plan.Channels, channel.MarkovChannel(channel.GilbertSpec(p, q)))
		}
	}
	res := runPlan(t, plan)
	if res[0].Aggregate.Failed() || res[1].Aggregate.Failed() {
		t.Fatal("p=0 row failed under the markov model")
	}
	// And a trace-driven sweep: a lossless trace decodes everywhere.
	plan.Channels = []channel.Spec{channel.TraceChannel(make([]bool, 16), false)}
	for _, r := range runPlan(t, plan) {
		if r.Aggregate.Failed() {
			t.Fatalf("lossless trace failed at %s", r.Point.Channel.Key())
		}
	}
}

func TestPaperGridValues(t *testing.T) {
	if engine.PaperGrid[0] != 0 || engine.PaperGrid[len(engine.PaperGrid)-1] != 1 {
		t.Fatal("PaperGrid endpoints wrong")
	}
	for i := 1; i < len(engine.PaperGrid); i++ {
		if engine.PaperGrid[i] <= engine.PaperGrid[i-1] {
			t.Fatal("PaperGrid not increasing")
		}
	}
}
