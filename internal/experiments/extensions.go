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
			c, err := ldpc.New(ldpc.Params{K: o.K, N: o.K * 5 / 2, Variant: ldpc.Staircase, Seed: o.Seed})
			if err != nil {
				return nil, err
			}
			grid := o.Grid
			if grid == nil {
				grid = []float64{0, 0.05, 0.20, 0.50}
			}
			rep := &Report{ID: "ext-ml-decoding",
				Title: "Peeling vs ML decoding",
				Notes: []string{fmt.Sprintf("k=%d, trials=%d", o.K, o.Trials)}}
			for _, spec := range []struct {
				name string
				code core.Code
			}{
				{"peeling decoder", c},
				{"peeling + Gaussian fallback (ML)", mlCode{c}},
			} {
				g, err := engine.Sweep(engine.SweepConfig{
					Code: spec.code, Scheduler: sched.TxModel4{},
					P: grid, Q: grid,
					Trials: o.Trials, Seed: o.Seed, Workers: o.Workers,
				})
				if err != nil {
					return nil, err
				}
				rep.Tables = append(rep.Tables, gridTable(spec.name, g, engine.Aggregate.String))
			}
			return rep, nil
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
