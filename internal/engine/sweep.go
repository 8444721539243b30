package engine

import (
	"context"
	"fmt"

	"fecperf/internal/channel"
	"fecperf/internal/core"
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

// SweepConfig describes a full grid sweep of a live code (Section 4.1's
// methodology: every cell runs Trials receptions, each redrawing the
// schedule and a fresh channel realisation; a cell where any trial fails
// reports Failed() — the paper plots no point there).
type SweepConfig struct {
	Code      core.Code
	Scheduler core.Scheduler
	// P and Q are the grid axes; nil means PaperGrid.
	P, Q []float64
	// Factory maps the grid coordinates of a cell to its loss channel;
	// nil means channel.GilbertChannel.
	Factory func(p, q float64) channel.Spec
	// Trials per cell (0 = 100) and base Seed.
	Trials int
	Seed   int64
	// NSent truncates schedules as in PointSpec.
	NSent int
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
}

// Sweep measures every (p, q) cell of the grid through the shared worker
// pool (cells and their trials interleave freely across workers) and
// returns the filled grid. Results are deterministic in Seed regardless
// of worker count. A cell whose channel is invalid fails the sweep
// before any trial runs.
func Sweep(cfg SweepConfig) (*Grid, error) {
	ps, qs := cfg.P, cfg.Q
	if ps == nil {
		ps = PaperGrid
	}
	if qs == nil {
		qs = PaperGrid
	}
	factory := cfg.Factory
	if factory == nil {
		factory = channel.GilbertChannel
	}

	specs := make([]PointSpec, 0, len(ps)*len(qs))
	for i, p := range ps {
		for j, q := range qs {
			specs = append(specs, PointSpec{
				Code:      cfg.Code,
				Scheduler: cfg.Scheduler,
				Channel:   factory(p, q),
				Trials:    cfg.Trials,
				Seed:      core.DeriveSeed(cfg.Seed, uint64(i), uint64(j)),
				NSent:     cfg.NSent,
			})
		}
	}
	aggs, err := RunPointSpecs(context.Background(), specs, cfg.Workers)
	if err != nil {
		return nil, err
	}
	g := &Grid{P: ps, Q: qs, Cells: make([][]Aggregate, len(ps))}
	for i := range g.Cells {
		g.Cells[i] = aggs[i*len(qs) : (i+1)*len(qs)]
	}
	return g, nil
}

// SweepPlan is Sweep for a declarative plan: it fills plan.Channels
// with the (p, q) grid axis×axis of one channel kind, runs the plan —
// checkpoints, progress and metrics through opts like any other — and
// folds the results back into a Grid. Cells are deduplicated by channel
// Key, so kinds that ignore a coordinate (bernoulli ignores q, noloss
// both) measure each distinct channel once. A nil axis means PaperGrid;
// the plan's other axes must hold one value each.
func SweepPlan(ctx context.Context, plan Plan, kind string, axis []float64, opts Options) (*Grid, error) {
	if axis == nil {
		axis = PaperGrid
	}
	plan.Channels = nil
	index := map[string]int{}                   // channel key → position in plan.Channels
	cell := make([]int, 0, len(axis)*len(axis)) // row-major grid cell → the same
	for _, p := range axis {
		for _, q := range axis {
			ch := channel.Spec{Kind: kind, P: p, Q: q}
			key := ch.Key()
			at, ok := index[key]
			if !ok {
				at = len(plan.Channels)
				index[key] = at
				plan.Channels = append(plan.Channels, ch)
			}
			cell = append(cell, at)
		}
	}
	if n := plan.NumPoints(); n != len(plan.Channels) {
		return nil, fmt.Errorf("engine: a grid sweep takes one code, k, ratio, scheduler and nsent; the plan expands to %d points for %d channels",
			n, len(plan.Channels))
	}
	res, err := Run(ctx, plan, opts)
	if err != nil {
		return nil, err
	}
	g := &Grid{P: axis, Q: axis, Cells: make([][]Aggregate, len(axis))}
	for i := range g.Cells {
		g.Cells[i] = make([]Aggregate, len(axis))
		for j := range g.Cells[i] {
			g.Cells[i][j] = res[cell[i*len(axis)+j]].Aggregate
		}
	}
	return g, nil
}
