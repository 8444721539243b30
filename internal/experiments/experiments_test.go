package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"fecperf/internal/channel"
	"fecperf/internal/codes"
	"fecperf/internal/engine"
	"fecperf/internal/ldpc"
	"fecperf/internal/recommend"
	"fecperf/internal/sched"
)

func runPoint(spec engine.PointSpec) engine.Aggregate {
	agg, _ := engine.RunPoint(context.Background(), spec, 0)
	return agg
}

// tinyOpts keeps experiment tests fast: small object, few trials, a 3-value
// grid instead of the paper's 14.
func tinyOpts() Options {
	return Options{K: 120, Trials: 3, Seed: 1, Grid: []float64{0, 0.05, 0.5}}
}

func TestRegistryComplete(t *testing.T) {
	wantIDs := []string{
		"fig5-global-loss", "fig6-loss-limits", "fig7-no-fec",
		"fig8-tx1", "fig9-tx2", "fig10-tx3", "fig11-tx4", "fig12-tx5",
		"fig13-tx6", "fig14-rx1", "fig15-example",
		"table1-tx2-tri-2.5", "table2-tx2-sc-2.5", "table3-tx2-tri-1.5",
		"table4-tx2-sc-1.5", "table5-tx4-tri-2.5", "table6-tx4-tri-1.5",
		"table7-tx5-rse-2.5", "table8-tx5-rse-1.5", "table9-tx6-sc-2.5",
		"ext-ml-decoding", "ext-carousel",
	}
	for _, id := range wantIDs {
		if _, err := ByID(id); err != nil {
			t.Errorf("missing experiment %q: %v", id, err)
		}
	}
	if len(List()) != len(wantIDs) {
		t.Errorf("registry has %d experiments, want %d", len(List()), len(wantIDs))
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("nope"); err == nil {
		t.Fatal("ByID accepted unknown id")
	}
}

func TestListSorted(t *testing.T) {
	l := List()
	for i := 1; i < len(l); i++ {
		if l[i].ID < l[i-1].ID {
			t.Fatal("List not sorted")
		}
	}
}

func TestMakeCode(t *testing.T) {
	for _, name := range codes.Names {
		c, err := codes.Spec{Family: name, K: 100, Ratio: 2.5, Seed: 1}.New()
		if err != nil {
			t.Fatalf("Spec{%q}.New(): %v", name, err)
		}
		l := c.Layout()
		if l.K != 100 {
			t.Fatalf("%s: k=%d", name, l.K)
		}
		if r := l.ExpansionRatio(); r < 2.3 || r > 2.7 {
			t.Fatalf("%s: ratio %g", name, r)
		}
	}
	if _, err := (codes.Spec{Family: "bogus", K: 100, Ratio: 2.5, Seed: 1}).New(); err == nil {
		t.Fatal("Spec.New accepted bogus name")
	}
}

func TestFig5Analytic(t *testing.T) {
	e, _ := ByID("fig5-global-loss")
	rep, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Format()
	// p=0 row is all zeros; p=q row midpoint is 0.5.
	if !strings.Contains(out, "0.000") || !strings.Contains(out, "0.500") {
		t.Fatalf("fig5 output missing expected values:\n%s", out)
	}
}

func TestFig6Limits(t *testing.T) {
	e, _ := ByID("fig6-loss-limits")
	rep, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || len(rep.Notes) != 2 {
		t.Fatalf("unexpected report shape: %+v", rep)
	}
}

func TestFig7NoFEC(t *testing.T) {
	e, _ := ByID("fig7-no-fec")
	rep, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	// p=0 row decodes with inefficiency near 2; all p>0 rows fail.
	if tbl.Cells[0][0] == "-" {
		t.Fatal("fig7: p=0 cell failed")
	}
	// The coupon-collector inefficiency tends to 2 as k grows; at the tiny
	// k used here it is already well above 1.7.
	var v0 float64
	if _, err := fmt.Sscan(tbl.Cells[0][2], &v0); err != nil {
		t.Fatal(err)
	}
	if v0 < 1.7 || v0 > 2.0 {
		t.Fatalf("fig7: p=0 inefficiency %g, want in [1.7, 2.0]", v0)
	}
	for i := 1; i < len(tbl.Cells); i++ {
		for j := range tbl.Cells[i] {
			if tbl.Cells[i][j] != "-" {
				// with tiny k a lucky trial may survive small p; accept
				// numeric cells only for p=5% on the tiny grid.
				if tinyOpts().Grid[i] > 0.05 {
					t.Fatalf("fig7: cell p=%g q=%g = %s, want -", tinyOpts().Grid[i], tinyOpts().Grid[j], tbl.Cells[i][j])
				}
			}
		}
	}
}

func TestTxFigureExperimentsRun(t *testing.T) {
	// Smoke-run every grid experiment at tiny scale and sanity-check the
	// p=0 behaviour that Section 4 calls out.
	for _, id := range []string{"fig8-tx1", "fig9-tx2", "fig11-tx4", "fig12-tx5", "fig13-tx6"} {
		e, _ := ByID(id)
		rep, err := e.Run(tinyOpts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Tables) == 0 {
			t.Fatalf("%s: no tables", id)
		}
		out := rep.Format()
		if !strings.Contains(out, "p\\q") {
			t.Fatalf("%s: missing grid header:\n%s", id, out)
		}
	}
}

func TestFig8PerfectChannelIsOptimal(t *testing.T) {
	e, _ := ByID("fig8-tx1")
	rep, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// With Tx_model_1 and p=0 every code needs exactly k packets.
	for _, tbl := range rep.Tables {
		if strings.Contains(tbl.Name, "n_received") {
			continue
		}
		for j := range tbl.Cells[0] {
			if tbl.Cells[0][j] != "1.000" {
				t.Fatalf("%s: p=0 cell %d = %s, want 1.000", tbl.Name, j, tbl.Cells[0][j])
			}
		}
	}
}

func TestFig10Tx3NonSystematicStart(t *testing.T) {
	e, _ := ByID("fig10-tx3")
	rep, err := e.Run(Options{K: 200, Trials: 3, Seed: 1, Grid: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	// Section 4.5: at p=0 with ratio 2.5 the LDGM codes need (almost) all
	// parity plus a source packet, so the inefficiency is ≈1.5. RSE with
	// the small k used here has only B=2 blocks, so the last block's
	// parity-only decode completes earlier, at ((B-1)·p_b + k_b)/k = 1.25;
	// the paper's ≈1.5 value emerges from its ~197 blocks at k=20000.
	for _, tbl := range rep.Tables {
		if strings.Contains(tbl.Name, "n_received") || !strings.Contains(tbl.Name, "2.5") {
			continue
		}
		v := tbl.Cells[0][0]
		if v == "-" {
			t.Fatalf("%s: p=0 failed", tbl.Name)
		}
		var f float64
		if _, err := fmt.Sscan(v, &f); err != nil {
			t.Fatal(err)
		}
		lo, hi := 1.45, 1.56
		if strings.Contains(tbl.Name, "rse") {
			lo, hi = 1.2, 1.3
		}
		if f < lo || f > hi {
			t.Fatalf("%s: p=0 inefficiency %s, want in [%g,%g]", tbl.Name, v, lo, hi)
		}
	}
}

func TestFig14Shape(t *testing.T) {
	e, _ := ByID("fig14-rx1")
	rep, err := e.Run(Options{K: 300, Trials: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Series[0]
	if len(s.X) < 5 {
		t.Fatalf("fig14: only %d points", len(s.X))
	}
	if s.X[0] != 1 || s.X[len(s.X)-1] != 300 {
		t.Fatalf("fig14: x range [%g,%g]", s.X[0], s.X[len(s.X)-1])
	}
	// The receiving-everything end (s=k) must be exactly optimal? No:
	// receiving all source first means ineff 1.0.
	if last := s.Y[len(s.Y)-1]; last != 1.0 {
		t.Fatalf("fig14: s=k inefficiency %g, want 1.0", last)
	}
}

func TestFig15Runs(t *testing.T) {
	e, _ := ByID("fig15-example")
	rep, err := e.Run(Options{K: 150, Trials: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("fig15: %d tables, want 2", len(rep.Tables))
	}
	// tx6 row only in the ratio-2.5 table.
	for _, tbl := range rep.Tables {
		hasTx6 := false
		for _, r := range tbl.RowLabels {
			if r == "tx6" {
				hasTx6 = true
			}
		}
		if strings.Contains(tbl.Name, "1.5") && hasTx6 {
			t.Fatal("fig15: tx6 present at ratio 1.5")
		}
		if strings.Contains(tbl.Name, "2.5") && !hasTx6 {
			t.Fatal("fig15: tx6 missing at ratio 2.5")
		}
	}
}

// TestFig15CellsAreRanksMeasurements: Figure 15 tabulates the candidates
// the recommender ranks at the Section 6.2.1 channel, so every cell must
// render the aggregate recommend.Rank measures for its tuple at the same
// k, trials and seed.
func TestFig15CellsAreRanksMeasurements(t *testing.T) {
	o := Options{K: 200, Trials: 5, Seed: 3}
	e, _ := ByID("fig15-example")
	rep, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := recommend.Rank(0.0109, 0.7915, recommend.Config{K: o.K, Trials: o.Trials, Seed: o.Seed})
	if err != nil {
		t.Fatal(err)
	}
	want := map[recommend.Tuple]string{}
	for _, r := range ranked {
		want[r.Tuple] = "-"
		if !r.Failed {
			want[r.Tuple] = fmt.Sprintf("%.3f", r.Ineff)
		}
	}
	cells, distinct := 0, map[string]bool{}
	for ti, ratio := range []float64{1.5, 2.5} {
		tbl := rep.Tables[ti]
		for ri, model := range tbl.RowLabels {
			for ci, code := range tbl.ColLabels {
				tuple := recommend.Tuple{Code: code, TxModel: model, Ratio: ratio}
				got := tbl.Cells[ri][ci]
				if got != want[tuple] {
					t.Errorf("%s: fig15 renders %s, Rank measured %s", tuple, got, want[tuple])
				}
				cells++
				distinct[got] = true
			}
		}
	}
	if cells != len(ranked) {
		t.Fatalf("fig15 has %d cells, Rank ranks %d tuples", cells, len(ranked))
	}
	if len(distinct) < 10 {
		t.Fatalf("only %d distinct cells: the scale does not tell measurements apart", len(distinct))
	}
}

func TestAppendixTableExperiment(t *testing.T) {
	e, _ := ByID("table2-tx2-sc-2.5")
	rep, err := e.Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	if tbl.Cells[0][0] != "1.000" {
		t.Fatalf("table2: p=0,q=0 cell %s, want 1.000 (no loss)", tbl.Cells[0][0])
	}
}

func TestTableFormatAlignment(t *testing.T) {
	tbl := Table{
		Name:      "demo",
		RowHeader: "p\\q",
		ColLabels: []string{"0", "100"},
		RowLabels: []string{"0"},
		Cells:     [][]string{{"1.000", "-"}},
	}
	out := tbl.Format()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("unexpected format:\n%s", out)
	}
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("misaligned rows:\n%s", out)
	}
}

func TestSeriesFormatMarksFailures(t *testing.T) {
	s := Series{Name: "x", XLabel: "a", YLabel: "b",
		X: []float64{1, 2}, Y: []float64{1.5, 0}, Failed: []bool{false, true}}
	out := s.Format()
	if !strings.Contains(out, "1\t1.5000") || !strings.Contains(out, "2\t-") {
		t.Fatalf("series format wrong:\n%s", out)
	}
}

func TestExtMLDecodingExperiment(t *testing.T) {
	e, _ := ByID("ext-ml-decoding")
	rep, err := e.Run(Options{K: 200, Trials: 4, Seed: 1, Grid: []float64{0, 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("%d tables, want 2 (peeling, ML)", len(rep.Tables))
	}
	// ML decodes everything peeling decodes; compare the (0.2, 0.2) cell:
	// both should be numeric at this mild point and ML never worse.
	peel, ml := rep.Tables[0], rep.Tables[1]
	for i := range peel.Cells {
		for j := range peel.Cells[i] {
			if peel.Cells[i][j] != "-" && ml.Cells[i][j] == "-" {
				t.Fatalf("ML failed where peeling succeeded at (%d,%d)", i, j)
			}
		}
	}
}

// TestExtMLDecodingPaired: ext-ml-decoding runs peeling and ML on the
// same seeds, so every trial puts the same schedule through the same
// loss realisation for both, and the ML decoder, knowing at least every
// symbol the peeling decoder knows, decodes no later. In every cell both
// therefore receive the same symbols, ML fails no more often, and where
// neither failed its mean inefficiency is no higher. On independent
// seeds the last two hold only on average, and the first not at all.
func TestExtMLDecodingPaired(t *testing.T) {
	peel, ml, err := mlGrids(Options{K: 100, Trials: 12, Seed: 3, Grid: []float64{0, 0.05, 0.2, 0.5}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-12
	better := 0 // cells where ML failed less often or decoded earlier
	for i, p := range peel.P {
		for j, q := range peel.Q {
			a, b := peel.At(i, j), ml.At(i, j)
			if b.Trials != a.Trials || b.Failures > a.Failures {
				t.Errorf("(p=%g, q=%g): ML failed %d of %d trials, peeling %d of %d", p, q, b.Failures, b.Trials, a.Failures, a.Trials)
			}
			if b.ReceivedOverK != a.ReceivedOverK {
				t.Errorf("(p=%g, q=%g): ML received %.4f k on average, peeling %.4f k: not the same losses",
					p, q, b.ReceivedOverK.Mean(), a.ReceivedOverK.Mean())
			}
			bothDecoded := !a.Failed() && !b.Failed()
			if bothDecoded && b.MeanIneff() > a.MeanIneff()+eps {
				t.Errorf("(p=%g, q=%g): ML mean inefficiency %.4f above peeling's %.4f", p, q, b.MeanIneff(), a.MeanIneff())
			}
			if b.Failures < a.Failures || bothDecoded && b.MeanIneff() < a.MeanIneff()-eps {
				better++
			}
		}
	}
	if better == 0 {
		t.Error("ML never beat peeling: the grid does not exercise the fallback")
	}
}

func TestExtCarouselExperiment(t *testing.T) {
	e, _ := ByID("ext-carousel")
	rep, err := e.Run(Options{K: 150, Trials: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	if len(tbl.Cells) != 4 {
		t.Fatalf("%d rows, want 4", len(tbl.Cells))
	}
	if tbl.Cells[0][0] != "0/4" {
		t.Fatalf("1 round decoded %s at 50%% loss with ratio 1.5, want 0/4", tbl.Cells[0][0])
	}
	if tbl.Cells[3][0] != "4/4" {
		t.Fatalf("4 rounds decoded %s, want 4/4", tbl.Cells[3][0])
	}
}

func TestMLReceiverBeatsPeelingOnAverage(t *testing.T) {
	// The extension's point: the ML receiver needs no more packets than
	// peeling for the same reception order.
	c, err := ldpcNewForTest(300)
	if err != nil {
		t.Fatal(err)
	}
	gauss, err := codes.ByName("ldgm-staircase(k=300,ratio=2.5,seed=4,decoder=gauss)")
	if err != nil {
		t.Fatal(err)
	}
	agg := runPoint(engine.PointSpec{
		Code: c, Scheduler: sched.TxModel4{},
		Channel: channel.GilbertChannel(0.1, 0.5),
		Trials:  5, Seed: 3,
	})
	ml := runPoint(engine.PointSpec{
		Code: gauss, Scheduler: sched.TxModel4{},
		Channel: channel.GilbertChannel(0.1, 0.5),
		Trials:  5, Seed: 3,
	})
	if ml.Failed() {
		t.Fatal("ML receiver failed")
	}
	if !agg.Failed() && ml.MeanIneff() > agg.MeanIneff()+1e-9 {
		t.Fatalf("ML inefficiency %.4f worse than peeling %.4f", ml.MeanIneff(), agg.MeanIneff())
	}
}

func ldpcNewForTest(k int) (*ldpc.Code, error) {
	return ldpc.New(ldpc.Params{K: k, N: k * 5 / 2, Variant: ldpc.Staircase, Seed: 4})
}
