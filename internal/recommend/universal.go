package recommend

// This file implements the heterogeneous-receivers side of Section 6.2.2:
// evaluating how a single (code, tx model, ratio) tuple behaves across a
// whole population of channel points, and sizing one n_sent that serves
// them all (the paper: "for each (p, q) we evaluate the inefficiency ratio
// and find the corresponding n_sent value; then we select the largest").

import (
	"fmt"
	"sort"

	"fecperf/internal/channel"
	"fecperf/internal/codes"
	"fecperf/internal/engine"
	"fecperf/internal/stats"
	"fecperf/internal/wire"
)

// PQ is one Gilbert channel operating point.
type PQ struct{ P, Q float64 }

// PopulationResult describes how one tuple serves a set of receivers.
type PopulationResult struct {
	Tuple Tuple
	// FailedPoints lists the channel points where at least one trial
	// failed to decode.
	FailedPoints []PQ
	// Ineff aggregates the mean inefficiency across the points that
	// decoded everywhere.
	Ineff stats.Accumulator
}

// Reliable reports whether the tuple decoded at every point.
func (r PopulationResult) Reliable() bool { return len(r.FailedPoints) == 0 }

// EvaluatePopulation measures one tuple at every channel point.
func EvaluatePopulation(t Tuple, points []PQ, cfg Config) (PopulationResult, error) {
	aggs, err := measure([]Tuple{t}, points, cfg)
	if err != nil {
		return PopulationResult{}, err
	}
	return population(t, points, aggs[0]), nil
}

// population folds a tuple's per-point aggregates into its result.
func population(t Tuple, points []PQ, aggs []engine.Aggregate) PopulationResult {
	out := PopulationResult{Tuple: t}
	for i, agg := range aggs {
		if agg.Failed() {
			out.FailedPoints = append(out.FailedPoints, points[i])
			continue
		}
		out.Ineff.Add(agg.MeanIneff())
	}
	return out
}

// RankForPopulation orders candidate tuples for a receiver population:
// tuples that decode at every point come first (fewest failed points
// otherwise), ties broken by worst-case inefficiency — the universal-
// scheme criterion of Section 6.2.2.
func RankForPopulation(points []PQ, cfg Config) ([]PopulationResult, error) {
	cands := Candidates()
	aggs, err := measure(cands, points, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]PopulationResult, len(cands))
	for i, t := range cands {
		out[i] = population(t, points, aggs[i])
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if len(a.FailedPoints) != len(b.FailedPoints) {
			return len(a.FailedPoints) < len(b.FailedPoints)
		}
		if a.Ineff.N() == 0 || b.Ineff.N() == 0 {
			return a.Ineff.N() > b.Ineff.N()
		}
		return a.Ineff.Max() < b.Ineff.Max()
	})
	return out, nil
}

// NSentForPopulation sizes a single n_sent that lets every receiver in
// the population decode (the compromise of Section 6.2.2): it evaluates
// the tuple at each point, applies Equation 3, and returns the largest
// result. Points where the tuple fails to decode make the sizing
// impossible and are returned as an error.
func NSentForPopulation(t Tuple, points []PQ, margin int, cfg Config) (int, error) {
	cfg = cfg.withDefaults()
	aggs, err := measure([]Tuple{t}, points, cfg)
	if err != nil {
		return 0, err
	}
	// The cap is the n the sender announces, the integer Spec.New builds.
	f, err := wire.FamilyByName(t.Code)
	if err != nil {
		return 0, err
	}
	n, err := codes.N(f, cfg.K, t.Ratio)
	if err != nil {
		return 0, err
	}
	best := 0
	for i, agg := range aggs[0] {
		pt := points[i]
		if agg.Failed() {
			return 0, fmt.Errorf("recommend: tuple %s fails at (p=%g, q=%g); cannot size n_sent", t, pt.P, pt.Q)
		}
		// Use the worst observed inefficiency at this point, not the
		// mean: the sizing must cover the receivers' tail.
		nsent, err := OptimalNSent(cfg.K, agg.Ineff.Max(), channel.GlobalLoss(pt.P, pt.Q), margin, n)
		if err != nil {
			return 0, err
		}
		if nsent > best {
			best = nsent
		}
	}
	return best, nil
}
