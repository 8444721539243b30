package experiments

// This file registers the experiments behind the paper's figures. Each
// figure's caption-level content (which codes, which ratios, which
// transmission model) is encoded here; the numbers come from the sweep
// engine.

import (
	"context"
	"fmt"
	"slices"

	"fecperf/internal/channel"
	"fecperf/internal/codes"
	"fecperf/internal/core"
	"fecperf/internal/engine"
	"fecperf/internal/sched"
)

// gridTable renders a sweep result as a paper-style table, one cell per
// (p, q) through cell: engine.Aggregate.String for the inefficiency
// surface, receivedOverK for its n_received/k companion.
func gridTable(name string, g *engine.Grid, cell func(engine.Aggregate) string) Table {
	t := Table{
		Name:      name,
		RowHeader: "p\\q",
		ColLabels: percentLabels(g.Q),
		RowLabels: percentLabels(g.P),
	}
	for i := range g.P {
		row := make([]string, len(g.Q))
		for j := range g.Q {
			row[j] = cell(g.At(i, j))
		}
		t.Cells = append(t.Cells, row)
	}
	return t
}

func receivedOverK(a engine.Aggregate) string { return fmt.Sprintf("%.3f", a.ReceivedOverK.Mean()) }

// sweepCode runs one (code, scheduler) sweep with the experiment options
// as a declarative engine plan whose channel axis is the Gilbert (p, q)
// grid ps × o.Grid.
func sweepCode(o Options, codeName string, ratio float64, s core.Scheduler, ps []float64) (*engine.Grid, error) {
	plan := engine.Plan{Codes: []string{codeName}, Ks: []int{o.K}, Ratios: []float64{ratio},
		Schedulers: []string{s.Name()}, Trials: o.Trials, Seed: o.Seed}
	return engine.SweepPlan(context.Background(), plan, "gilbert", ps, o.Grid, engine.Options{Workers: o.Workers})
}

// txFigure builds the standard figure report: the given codes × ratios
// under one transmission model.
func txFigure(id, ref, title string, s core.Scheduler, combos []comboSpec, withReceived bool) Experiment {
	return Experiment{
		ID:       id,
		PaperRef: ref,
		Title:    title,
		Run: func(o Options) (*Report, error) {
			o = o.withDefaults()
			rep := &Report{ID: id, Title: title,
				Notes: []string{fmt.Sprintf("k=%d, trials=%d, scheduler=%s", o.K, o.Trials, s.Name())}}
			for _, cb := range combos {
				g, err := sweepCode(o, cb.code, cb.ratio, s, o.Grid)
				if err != nil {
					return nil, err
				}
				name := fmt.Sprintf("%s, FEC expansion ratio %.1f", cb.code, cb.ratio)
				rep.Tables = append(rep.Tables, gridTable(name, g, engine.Aggregate.String))
				if withReceived {
					rep.Tables = append(rep.Tables, gridTable(name+" (n_received/k)", g, receivedOverK))
				}
			}
			return rep, nil
		},
	}
}

type comboSpec struct {
	code  string
	ratio float64
}

// allCombos is the three codes at both ratios, in the figures' order.
var allCombos = []comboSpec{
	{"rse", 2.5}, {"ldgm-staircase", 2.5}, {"ldgm-triangle", 2.5},
	{"rse", 1.5}, {"ldgm-staircase", 1.5}, {"ldgm-triangle", 1.5},
}

func init() {
	register(Experiment{
		ID:       "fig5-global-loss",
		PaperRef: "Figure 5",
		Title:    "Global loss probability p/(p+q) over the (p,q) grid",
		Run: func(o Options) (*Report, error) {
			o = o.withDefaults()
			axis := o.Grid
			if axis == nil {
				axis = engine.PaperGrid
			}
			t := Table{Name: "p_global", RowHeader: "p\\q",
				ColLabels: percentLabels(axis), RowLabels: percentLabels(axis)}
			for _, p := range axis {
				row := make([]string, len(axis))
				for j, q := range axis {
					row[j] = fmt.Sprintf("%.3f", channel.GlobalLoss(p, q))
				}
				t.Cells = append(t.Cells, row)
			}
			return &Report{ID: "fig5-global-loss", Title: "Global loss probability",
				Tables: []Table{t}}, nil
		},
	})

	register(Experiment{
		ID:       "fig6-loss-limits",
		PaperRef: "Figure 6",
		Title:    "Decoding-impossibility limits for FEC expansion ratios 1.5 and 2.5",
		Run: func(o Options) (*Report, error) {
			o = o.withDefaults()
			axis := o.Grid
			if axis == nil {
				axis = engine.PaperGrid
			}
			t := Table{Name: "boundary q(p) with inef_ratio=1", RowHeader: "p",
				ColLabels: []string{"q_limit(ratio=1.5)", "q_limit(ratio=2.5)"}}
			for _, p := range axis {
				t.RowLabels = append(t.RowLabels, fmt.Sprintf("%g", p*100))
				row := make([]string, 2)
				for c, ratio := range []float64{1.5, 2.5} {
					if q, ok := channel.LimitQ(p, ratio, 1.0); ok {
						row[c] = fmt.Sprintf("%.3f", q)
					} else {
						row[c] = "-"
					}
				}
				t.Cells = append(t.Cells, row)
			}
			notes := []string{
				fmt.Sprintf("feasible grid fraction ratio 1.5: %.3f", channel.FeasibleFraction(1.5, 141)),
				fmt.Sprintf("feasible grid fraction ratio 2.5: %.3f", channel.FeasibleFraction(2.5, 141)),
			}
			return &Report{ID: "fig6-loss-limits", Title: "Loss limits", Notes: notes,
				Tables: []Table{t}}, nil
		},
	})

	register(Experiment{
		ID:       "fig7-no-fec",
		PaperRef: "Figure 7",
		Title:    "No FEC, x2 repetitions in random order",
		Run: func(o Options) (*Report, error) {
			o = o.withDefaults()
			// The paper plots p in [0,5]%: beyond that everything fails.
			ps := o.Grid
			if ps == nil {
				ps = []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05}
			}
			g, err := sweepCode(o, "no-fec", 1, sched.Repeat{}, ps)
			if err != nil {
				return nil, err
			}
			rep := &Report{ID: "fig7-no-fec", Title: "Performances without FEC but 2 repetitions",
				Notes:  []string{"expected: decodes only at p=0, inefficiency near 2.0"},
				Tables: []Table{gridTable("no-FEC x2 repetition", g, engine.Aggregate.String)}}
			return rep, nil
		},
	})

	register(txFigure("fig8-tx1", "Figure 8",
		"Tx_model_1: source sequentially, then parity sequentially",
		sched.TxModel1{},
		[]comboSpec{{"rse", 2.5}, {"ldgm-triangle", 2.5}, {"rse", 1.5}, {"ldgm-triangle", 1.5}},
		true))

	register(txFigure("fig9-tx2", "Figure 9",
		"Tx_model_2: source sequentially, then parity randomly",
		sched.TxModel2{},
		allCombos,
		false))

	register(txFigure("fig10-tx3", "Figure 10",
		"Tx_model_3: parity sequentially, then source randomly",
		sched.TxModel3{},
		allCombos,
		true))

	register(txFigure("fig11-tx4", "Figure 11",
		"Tx_model_4: everything in random order",
		sched.TxModel4{},
		allCombos,
		false))

	register(txFigure("fig12-tx5", "Figure 12",
		"Tx_model_5: interleaving",
		sched.TxModel5{},
		[]comboSpec{{"rse", 2.5}, {"rse", 1.5}},
		false))

	register(txFigure("fig13-tx6", "Figure 13",
		"Tx_model_6: 20% of source packets plus all parity, randomly",
		sched.TxModel6{},
		[]comboSpec{{"rse", 2.5}, {"ldgm-staircase", 2.5}, {"ldgm-triangle", 2.5}},
		false))

	register(Experiment{
		ID:       "fig14-rx1",
		PaperRef: "Figure 14",
		Title:    "Rx_model_1: LDGM Staircase inefficiency vs number of source packets received first",
		Run:      runFig14,
	})

	register(Experiment{
		ID:       "fig15-example",
		PaperRef: "Figure 15",
		Title:    "Per-model inefficiency at the Section 6.2.1 channel (p=0.0109, q=0.7915)",
		Run:      runFig15,
	})
}

func runFig14(o Options) (*Report, error) {
	o = o.withDefaults()
	c, err := codes.Spec{Family: "ldgm-staircase", K: o.K, Ratio: 2.5, Seed: o.Seed}.New()
	if err != nil {
		return nil, err
	}
	// Log-spaced source counts from 1 to k, mimicking the paper's log axis.
	var counts []int
	for _, base := range []int{1, 2, 5} {
		for scale := 1; scale <= o.K; scale *= 10 {
			if v := base * scale; v <= o.K {
				counts = append(counts, v)
			}
		}
	}
	counts = append(counts, o.K)
	slices.Sort(counts)
	counts = slices.Compact(counts)

	specs := make([]engine.PointSpec, len(counts))
	for i, sc := range counts {
		specs[i] = engine.PointSpec{
			Code:      c,
			Scheduler: sched.RxModel1{SourceCount: sc},
			Channel:   channel.NoLossChannel(),
			Trials:    o.Trials,
			Seed:      core.DeriveSeed(o.Seed, uint64(sc)),
		}
	}
	aggs, err := engine.RunPointSpecs(context.Background(), specs, o.Workers)
	if err != nil {
		return nil, err
	}
	s := Series{
		Name:   "Rx_model_1, LDGM Staircase, ratio 2.5",
		XLabel: "nb of received source packets",
		YLabel: "aver. inefficiency ratio",
	}
	for i, agg := range aggs {
		s.X = append(s.X, float64(counts[i]))
		s.Y = append(s.Y, agg.MeanIneff())
		s.Failed = append(s.Failed, agg.Failed())
	}
	return &Report{ID: "fig14-rx1", Title: "Reception model 1",
		Notes:  []string{fmt.Sprintf("k=%d, trials=%d", o.K, o.Trials)},
		Series: []Series{s}}, nil
}

func runFig15(o Options) (*Report, error) {
	o = o.withDefaults()
	const p, q = 0.0109, 0.7915
	rep := &Report{ID: "fig15-example", Title: "Section 6.2.1 worked channel",
		Notes: []string{fmt.Sprintf("gilbert p=%g q=%g (p_global=%.4f), k=%d, trials=%d",
			p, q, channel.GlobalLoss(p, q), o.K, o.Trials)}}
	codeNames := []string{"rse", "ldgm-staircase", "ldgm-triangle"}
	// Every cell of both tables is one batch: a row per model, a column
	// per code, each (code, ratio) built once.
	var specs []engine.PointSpec
	for _, ratio := range []float64{1.5, 2.5} {
		t := Table{
			Name:      fmt.Sprintf("FEC expansion ratio = %.1f", ratio),
			RowHeader: "model",
			ColLabels: codeNames,
		}
		built := make([]core.Code, len(codeNames))
		for ci, name := range codeNames {
			c, err := codes.Spec{Family: name, K: o.K, Ratio: ratio, Seed: o.Seed}.New()
			if err != nil {
				return nil, err
			}
			built[ci] = c
		}
		for _, m := range sched.All() {
			if m.Name() == "tx6" && ratio < 2 {
				continue // the paper omits tx6 at ratio 1.5 (too few packets)
			}
			t.RowLabels = append(t.RowLabels, m.Name())
			for _, c := range built {
				specs = append(specs, engine.PointSpec{
					Code: c, Scheduler: m,
					Channel: channel.GilbertChannel(p, q),
					Trials:  o.Trials, Seed: o.Seed,
				})
			}
		}
		rep.Tables = append(rep.Tables, t)
	}
	aggs, err := engine.RunPointSpecs(context.Background(), specs, o.Workers)
	if err != nil {
		return nil, err
	}
	for ti := range rep.Tables {
		t := &rep.Tables[ti]
		for range t.RowLabels {
			row := make([]string, len(codeNames))
			for ci := range row {
				row[ci] = aggs[ci].String()
			}
			aggs = aggs[len(row):]
			t.Cells = append(t.Cells, row)
		}
	}
	return rep, nil
}
