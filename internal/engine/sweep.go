package engine

import (
	"context"
	"fmt"
	"slices"

	"fecperf/internal/channel"
)

// PaperGrid is the 14-value axis used by the paper's 14×14 (p, q) sweeps,
// in probability units: {0, 1, 5, 10, 15, 20, 30, ..., 100}%.
var PaperGrid = []float64{0, 0.01, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 1.00}

// Grid is the result of a (p, q) sweep: Cells[i][j] corresponds to
// P[i], Q[j].
type Grid struct {
	P, Q  []float64
	Cells [][]Aggregate
}

// At returns the aggregate for (P[i], Q[j]).
func (g *Grid) At(i, j int) Aggregate { return g.Cells[i][j] }

// GridPlan is a plan whose channel axis is the (p, q) grid P × Q of one
// channel kind. Its points run through Run (SweepPlan) or, materialised,
// through RunPointSpecs; Fold maps their aggregates back onto the grid.
type GridPlan struct {
	Plan Plan
	P, Q []float64
	cell []int // row-major grid cell → position in Plan.Channels
}

// NewGridPlan fills plan.Channels with the grid ps × qs of one channel
// kind (a nil axis means PaperGrid), each distinct channel Key once, so
// kinds that ignore a coordinate (bernoulli ignores q, noloss both)
// measure each channel once. The plan's other axes must hold one value
// each: its points are then its channels, in order.
func NewGridPlan(plan Plan, kind string, ps, qs []float64) (*GridPlan, error) {
	if ps == nil {
		ps = PaperGrid
	}
	if qs == nil {
		qs = PaperGrid
	}
	plan.Channels = nil
	g := &GridPlan{P: ps, Q: qs}
	for _, p := range ps {
		for _, q := range qs {
			ch := channel.Spec{Kind: kind, P: p, Q: q}
			at := slices.IndexFunc(plan.Channels, func(c channel.Spec) bool { return c.Key() == ch.Key() })
			if at < 0 {
				at = len(plan.Channels)
				plan.Channels = append(plan.Channels, ch)
			}
			g.cell = append(g.cell, at)
		}
	}
	if n := plan.NumPoints(); n != len(plan.Channels) {
		return nil, fmt.Errorf("engine: a grid sweep takes one code, k, ratio, scheduler and nsent; the plan expands to %d points for %d channels",
			n, len(plan.Channels))
	}
	g.Plan = plan
	return g, nil
}

// Fold returns the grid whose cells are the aggregates of the plan's
// points, point i's being agg(i).
func (g *GridPlan) Fold(agg func(i int) Aggregate) *Grid {
	out := &Grid{P: g.P, Q: g.Q, Cells: make([][]Aggregate, len(g.P))}
	for i := range out.Cells {
		out.Cells[i] = make([]Aggregate, len(g.Q))
		for j := range out.Cells[i] {
			out.Cells[i][j] = agg(g.cell[i*len(g.Q)+j])
		}
	}
	return out
}

// SweepPlan runs NewGridPlan's plan — checkpoints, progress and metrics
// through opts like any other — and folds the results into a Grid:
// Section 4.1's method, where every cell runs its trials on its own
// point's seed, and a cell where any trial fails reports Failed() (the
// paper plots no point there).
func SweepPlan(ctx context.Context, plan Plan, kind string, ps, qs []float64, opts Options) (*Grid, error) {
	g, err := NewGridPlan(plan, kind, ps, qs)
	if err != nil {
		return nil, err
	}
	res, err := Run(ctx, g.Plan, opts)
	if err != nil {
		return nil, err
	}
	return g.Fold(func(i int) Aggregate { return res[i].Aggregate }), nil
}
