package experiments

// Extension experiments beyond the paper's figures: quantifying the gap
// between the paper's iterative decoder and maximum-likelihood decoding
// (its "more elaborate decoders" future work), and the carousel's effect
// on channels lossier than the expansion ratio tolerates.

import (
	"context"
	"fmt"

	"fecperf/internal/channel"
	"fecperf/internal/core"
	"fecperf/internal/engine"
	"fecperf/internal/ldpc"
	"fecperf/internal/sched"
)

// mlCode adapts an ldpc.Code so NewReceiver returns the ML receiver.
type mlCode struct{ *ldpc.Code }

func (m mlCode) Name() string               { return m.Code.Name() + "+gauss" }
func (m mlCode) NewReceiver() core.Receiver { return m.Code.NewMLReceiver() }

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
			c, err := ldpc.New(ldpc.Params{K: o.K, N: o.K * 3 / 2, Variant: ldpc.Triangle, Seed: o.Seed})
			if err != nil {
				return nil, err
			}
			// A 50% IID loss channel: infeasible for ratio 1.5 in one
			// pass (1.5 × 0.5 < 1); the carousel restores delivery.
			t := Table{
				Name:      "ldgm-triangle ratio 1.5, 50% IID loss",
				RowHeader: "rounds",
				ColLabels: []string{"decoded", "mean inefficiency"},
			}
			rounds := []int{1, 2, 3, 4}
			specs := make([]engine.PointSpec, len(rounds))
			for i, r := range rounds {
				specs[i] = engine.PointSpec{
					Code:      c,
					Scheduler: sched.Carousel{Rounds: r},
					Channel:   channel.GilbertChannel(0.5, 0.5),
					Trials:    o.Trials,
					Seed:      o.Seed,
				}
			}
			aggs, err := engine.RunPointSpecs(context.Background(), specs, o.Workers)
			if err != nil {
				return nil, err
			}
			for i, agg := range aggs {
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

// mlGrids measures ext-ml-decoding's (p, q) grid plan twice, with the
// registry's LDGM Staircase code and with mlCode wrapping it. Both run
// every point on the point's own seed, so the grids are paired trial by
// trial (common random numbers) and their difference is the decoders'
// alone.
func mlGrids(o Options) (peeling, ml *engine.Grid, err error) {
	grid := o.Grid
	if grid == nil {
		grid = []float64{0, 0.05, 0.20, 0.50}
	}
	plan := engine.Plan{Codes: []string{"ldgm-staircase"}, Ks: []int{o.K}, Ratios: []float64{2.5},
		Schedulers: []string{"tx4"}, Trials: o.Trials, Seed: o.Seed}
	gp, err := engine.NewGridPlan(plan, "gilbert", grid, grid)
	if err != nil {
		return nil, nil, err
	}
	points, err := gp.Plan.Points()
	if err != nil {
		return nil, nil, err
	}
	specs := make([]engine.PointSpec, 2*len(points))
	codeCache := map[string]core.Code{}
	for i, pt := range points {
		if specs[i], err = engine.Materialize(pt, codeCache); err != nil {
			return nil, nil, err
		}
		specs[len(points)+i] = specs[i]
		specs[len(points)+i].Code = mlCode{specs[i].Code.(*ldpc.Code)}
	}
	aggs, err := engine.RunPointSpecs(context.Background(), specs, o.Workers)
	if err != nil {
		return nil, nil, err
	}
	ml = gp.Fold(func(i int) engine.Aggregate { return aggs[len(points)+i] })
	return gp.Fold(func(i int) engine.Aggregate { return aggs[i] }), ml, nil
}
