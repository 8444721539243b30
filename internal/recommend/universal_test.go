package recommend

import (
	"context"
	"strings"
	"testing"

	"fecperf/internal/codes"
	"fecperf/internal/engine"
	"fecperf/internal/sched"
	"fecperf/internal/stats"
)

func mildPopulation() []PQ {
	return []PQ{
		{P: 0.005, Q: 0.9},
		{P: 0.02, Q: 0.6},
		{P: 0.05, Q: 0.5},
	}
}

func TestEvaluatePopulationReliable(t *testing.T) {
	tuple := Tuple{Code: "ldgm-triangle", TxModel: "tx4", Ratio: 2.5}
	r, err := EvaluatePopulation(tuple, mildPopulation(), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Reliable() {
		t.Fatalf("universal tuple failed at %v", r.FailedPoints)
	}
	if r.Ineff.N() != 3 {
		t.Fatalf("aggregated %d points, want 3", r.Ineff.N())
	}
	if r.Ineff.Mean() < 1.0 || r.Ineff.Mean() > 1.4 {
		t.Fatalf("mean inefficiency %g out of plausible range", r.Ineff.Mean())
	}
}

// TestEvaluatePopulationOneGraphPerTuple: a sender has one code, so an
// LDGM tuple is measured on the graph built from cfg.Seed at every channel
// point — the graph NSentForPopulation sizes — and only the trial streams,
// the seeds of the tuple plan's points, differ per point.
func TestEvaluatePopulationOneGraphPerTuple(t *testing.T) {
	tuple := Tuple{Code: "ldgm-staircase", TxModel: "tx2", Ratio: 2.5}
	cfg := fastCfg()
	got, err := EvaluatePopulation(tuple, mildPopulation(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	code, err := codes.Spec{Family: tuple.Code, K: cfg.K, Ratio: tuple.Ratio, Seed: cfg.Seed}.New()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ByName(tuple.TxModel)
	if err != nil {
		t.Fatal(err)
	}
	points, err := tuple.plan(mildPopulation(), cfg).Points()
	if err != nil {
		t.Fatal(err)
	}
	var want stats.Accumulator
	for _, pt := range points {
		agg, err := engine.RunPoint(context.Background(), engine.PointSpec{
			Code: code, Scheduler: s, Channel: pt.Channel,
			Trials: cfg.Trials, Seed: pt.Seed,
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		want.Add(agg.MeanIneff())
	}
	if !got.Reliable() || got.Ineff != want {
		t.Fatalf("population measured %+v, the cfg.Seed graph gives %+v", got.Ineff, want)
	}
}

func TestEvaluatePopulationDetectsFailures(t *testing.T) {
	// A ratio-1.5 tuple cannot survive a 50% loss point.
	tuple := Tuple{Code: "ldgm-staircase", TxModel: "tx2", Ratio: 1.5}
	points := append(mildPopulation(), PQ{P: 0.5, Q: 0.5})
	r, err := EvaluatePopulation(tuple, points, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Reliable() {
		t.Fatal("tuple reported reliable at an infeasible point")
	}
	if len(r.FailedPoints) == 0 || r.FailedPoints[0].P != 0.5 {
		t.Fatalf("failed points %v", r.FailedPoints)
	}
}

func TestEvaluatePopulationEmptyPoints(t *testing.T) {
	if _, err := EvaluatePopulation(Universal()[0], nil, fastCfg()); err == nil {
		t.Fatal("accepted empty population")
	}
}

func TestRankForPopulationPrefersReliable(t *testing.T) {
	// Include one harsh point: ratio-1.5 tuples must sink below ratio-2.5
	// tuples that survive it.
	points := []PQ{{P: 0.01, Q: 0.8}, {P: 0.45, Q: 0.8}}
	ranked, err := RankForPopulation(points, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != len(Candidates()) {
		t.Fatalf("ranked %d tuples", len(ranked))
	}
	first := ranked[0]
	if !first.Reliable() {
		t.Fatalf("top tuple unreliable: %+v", first.Tuple)
	}
	if first.Tuple.Ratio != 2.5 {
		t.Fatalf("top tuple %v should need ratio 2.5 to survive 36%% loss", first.Tuple)
	}
	// Ordering invariant: failures count never decreases down the list.
	last := 0
	for _, r := range ranked {
		if len(r.FailedPoints) < last {
			t.Fatal("failure ordering violated")
		}
		last = len(r.FailedPoints)
	}
}

func TestNSentForPopulation(t *testing.T) {
	tuple := Tuple{Code: "ldgm-triangle", TxModel: "tx4", Ratio: 2.5}
	cfg := fastCfg()
	nsent, err := NSentForPopulation(tuple, mildPopulation(), 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int(2.5 * float64(cfg.K))
	if nsent <= cfg.K || nsent > n {
		t.Fatalf("n_sent %d outside (%d, %d]", nsent, cfg.K, n)
	}
	// The sizing must dominate the single worst point's requirement.
	worstOnly, err := NSentForPopulation(tuple, mildPopulation()[2:], 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nsent < worstOnly {
		t.Fatalf("population n_sent %d below worst point's %d", nsent, worstOnly)
	}
}

func TestNSentForPopulationFailsOnInfeasiblePoint(t *testing.T) {
	tuple := Tuple{Code: "ldgm-staircase", TxModel: "tx2", Ratio: 1.5}
	_, err := NSentForPopulation(tuple, []PQ{{P: 0.6, Q: 0.4}}, 0, fastCfg())
	if err == nil || !strings.Contains(err.Error(), "fails at") {
		t.Fatalf("expected infeasibility error, got %v", err)
	}
}

func TestNSentForPopulationBadTuple(t *testing.T) {
	if _, err := NSentForPopulation(Tuple{Code: "zzz", TxModel: "tx4", Ratio: 2.5}, mildPopulation(), 0, fastCfg()); err == nil {
		t.Fatal("accepted unknown code")
	}
	if _, err := NSentForPopulation(Tuple{Code: "rse", TxModel: "zzz", Ratio: 2.5}, mildPopulation(), 0, fastCfg()); err == nil {
		t.Fatal("accepted unknown model")
	}
}
