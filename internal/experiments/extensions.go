package experiments

// Extension experiments beyond the paper's figures: quantifying the gap
// between the paper's iterative decoder and maximum-likelihood decoding
// (its "more elaborate decoders" future work), and the carousel's effect
// on channels lossier than the expansion ratio tolerates.

import (
	"context"
	"fmt"

	"fecperf/internal/channel"
	"fecperf/internal/engine"
)

func init() {
	register(Experiment{
		ID:       "ext-ml-decoding",
		PaperRef: "future work",
		Title:    "Iterative (peeling) vs maximum-likelihood decoding, LDGM Staircase, tx4, ratio 2.5",
		Run: func(o Options) (*Report, error) {
			o = o.withDefaults()
			// ML decoding is cubic in the stopping set; cap the default
			// object size so the experiment stays interactive.
			if o.K > 2000 {
				o.K = 2000
			}
			peeling, ml, err := mlGrids(o)
			if err != nil {
				return nil, err
			}
			return &Report{ID: "ext-ml-decoding",
				Title: "Peeling vs ML decoding",
				Notes: []string{fmt.Sprintf("k=%d, trials=%d", o.K, o.Trials)},
				Tables: []Table{
					gridTable("peeling decoder", peeling, engine.Aggregate.String),
					gridTable("peeling + Gaussian fallback (ML)", ml, engine.Aggregate.String),
				}}, nil
		},
	})

	register(Experiment{
		ID:       "ext-carousel",
		PaperRef: "conclusion",
		Title:    "Carousel rounds vs single pass beyond the feasibility limit",
		Run: func(o Options) (*Report, error) {
			o = o.withDefaults()
			// A 50% IID loss channel: infeasible for ratio 1.5 in one
			// pass (1.5 × 0.5 < 1); the carousel restores delivery.
			t := Table{
				Name:      "ldgm-triangle ratio 1.5, 50% IID loss",
				RowHeader: "rounds",
				ColLabels: []string{"decoded", "mean inefficiency"},
			}
			rounds := []int{1, 2, 3, 4}
			plan := engine.Plan{Codes: []string{"ldgm-triangle"}, Ks: []int{o.K}, Ratios: []float64{1.5},
				Channels: []channel.Spec{channel.GilbertChannel(0.5, 0.5)}, Trials: o.Trials, Seed: o.Seed}
			for _, r := range rounds {
				plan.Schedulers = append(plan.Schedulers, fmt.Sprintf("carousel(rounds=%d)", r))
			}
			res, err := engine.Run(context.Background(), plan, engine.Options{Workers: o.Workers})
			if err != nil {
				return nil, err
			}
			for i, r := range res {
				agg := r.Aggregate
				t.RowLabels = append(t.RowLabels, fmt.Sprintf("%d", rounds[i]))
				ineff := "-"
				if !agg.Failed() {
					ineff = fmt.Sprintf("%.3f", agg.MeanIneff())
				}
				t.Cells = append(t.Cells, []string{
					fmt.Sprintf("%d/%d", agg.Trials-agg.Failures, agg.Trials), ineff,
				})
			}
			return &Report{ID: "ext-carousel", Title: "Carousel extension",
				Notes:  []string{fmt.Sprintf("k=%d, trials=%d", o.K, o.Trials)},
				Tables: []Table{t}}, nil
		},
	})
}

// mlGrids measures ext-ml-decoding's (p, q) grid plan once per decoder:
// the registry's LDGM Staircase code, and the same code with
// decoder=gauss. A decoder is not part of a point's seed, so both run
// every cell on the same seed: the grids are paired trial by trial
// (common random numbers) and their difference is the decoders' alone.
func mlGrids(o Options) (peeling, ml *engine.Grid, err error) {
	grid := o.Grid
	if grid == nil {
		grid = []float64{0, 0.05, 0.20, 0.50}
	}
	plan := engine.Plan{Codes: []string{"ldgm-staircase", "ldgm-staircase(decoder=gauss)"}, Ks: []int{o.K},
		Ratios: []float64{2.5}, Schedulers: []string{"tx4"}, Trials: o.Trials, Seed: o.Seed}
	gp, err := engine.NewGridPlan(plan, "gilbert", grid, grid)
	if err != nil {
		return nil, nil, err
	}
	res, err := engine.Run(context.Background(), gp.Plan, engine.Options{Workers: o.Workers})
	if err != nil {
		return nil, nil, err
	}
	n := len(gp.Plan.Channels)
	peeling = gp.Fold(func(i int) engine.Aggregate { return res[i].Aggregate })
	return peeling, gp.Fold(func(i int) engine.Aggregate { return res[n+i].Aggregate }), nil
}
