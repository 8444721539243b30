package recommend

// This file implements the heterogeneous-receivers side of Section 6.2.2:
// evaluating how a single (code, tx model, ratio) tuple behaves across a
// whole population of channel points, and sizing one n_sent that serves
// them all (the paper: "for each (p, q) we evaluate the inefficiency ratio
// and find the corresponding n_sent value; then we select the largest").

import (
	"fmt"
	"math"
	"sort"

	"fecperf/internal/channel"
	"fecperf/internal/core"
	"fecperf/internal/stats"
)

// PQ is one Gilbert channel operating point.
type PQ struct{ P, Q float64 }

// pointSeed derives the per-point seed from the point's coordinates, not
// its position in the population, so the same (p, q) point always sees
// the same trial stream — sizing a subset of a population is then
// guaranteed to agree with sizing the whole of it.
func (c Config) pointSeed(pt PQ) int64 {
	return core.DeriveSeed(c.Seed, math.Float64bits(pt.P), math.Float64bits(pt.Q))
}

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
	cfg = cfg.withDefaults()
	if len(points) == 0 {
		return PopulationResult{}, fmt.Errorf("recommend: no channel points")
	}
	_, aggs, err := measure(t, points, cfg.pointSeed, cfg)
	if err != nil {
		return PopulationResult{}, err
	}
	out := PopulationResult{Tuple: t}
	for i, agg := range aggs {
		if agg.Failed() {
			out.FailedPoints = append(out.FailedPoints, points[i])
			continue
		}
		out.Ineff.Add(agg.MeanIneff())
	}
	return out, nil
}

// RankForPopulation orders candidate tuples for a receiver population:
// tuples that decode at every point come first (fewest failed points
// otherwise), ties broken by worst-case inefficiency — the universal-
// scheme criterion of Section 6.2.2.
func RankForPopulation(points []PQ, cfg Config) ([]PopulationResult, error) {
	var out []PopulationResult
	for _, t := range Candidates() {
		r, err := EvaluatePopulation(t, points, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
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
	n, aggs, err := measure(t, points, cfg.pointSeed, cfg)
	if err != nil {
		return 0, err
	}
	best := 0
	for i, agg := range aggs {
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
