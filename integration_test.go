package fecperf

// Cross-module integration tests: every (code × transmission model)
// combination through the full pipeline, the qualitative claims of the
// paper at reduced scale, and end-to-end determinism.

import (
	"context"
	"math/rand"
	"testing"

	"fecperf/internal/channel"
	"fecperf/internal/engine"
	"fecperf/internal/sched"
)

// runPoint measures one point on the engine, as Simulate does.
func runPoint(spec engine.PointSpec) Aggregate {
	agg, _ := engine.RunPoint(context.Background(), spec, 0)
	return agg
}

func TestEveryCodeUnderEveryTxModel(t *testing.T) {
	// Every combination must (a) run, (b) decode reliably on a mild
	// channel, (c) never report an inefficiency below 1.
	const k = 240
	for _, codeName := range CodeNames {
		for _, s := range sched.All() {
			ratio := 2.5 // tx6 requires a high ratio; use it everywhere
			code, err := NewCode(codeName, k, ratio, 3)
			if err != nil {
				t.Fatal(err)
			}
			agg := runPoint(engine.PointSpec{
				Code:      code,
				Scheduler: s,
				Channel:   channel.GilbertChannel(0.01, 0.9),
				Trials:    5,
				Seed:      11,
			})
			if agg.Failed() {
				t.Errorf("%s × %s: %d/%d trials failed on a mild channel",
					codeName, s.Name(), agg.Failures, agg.Trials)
				continue
			}
			if agg.MeanIneff() < 1.0 {
				t.Errorf("%s × %s: inefficiency %g below 1", codeName, s.Name(), agg.MeanIneff())
			}
		}
	}
}

func TestPaperClaimTx1IsWorstForLDGMUnderBursts(t *testing.T) {
	// Figure 8 vs Figure 9: on a bursty channel, sending parity
	// sequentially (tx1) costs LDGM far more than sending it randomly
	// (tx2).
	code, err := NewCode("ldgm-triangle", 600, 2.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	bursty := channel.GilbertChannel(0.03, 0.3)
	tx1 := runPoint(engine.PointSpec{Code: code, Scheduler: sched.TxModel1{}, Channel: bursty, Trials: 10, Seed: 2})
	tx2 := runPoint(engine.PointSpec{Code: code, Scheduler: sched.TxModel2{}, Channel: bursty, Trials: 10, Seed: 2})
	if tx2.Failed() {
		t.Fatal("tx2 failed on a moderate channel")
	}
	// tx1 either fails outright or needs clearly more packets.
	if !tx1.Failed() && tx1.MeanIneff() < tx2.MeanIneff()+0.02 {
		t.Errorf("tx1 (%.4f) not clearly worse than tx2 (%.4f) under bursts",
			tx1.MeanIneff(), tx2.MeanIneff())
	}
}

func TestPaperClaimInterleavingRescuesRSE(t *testing.T) {
	// Figure 8 vs Figure 12 at reduced scale.
	code, err := NewCode("rse", 600, 1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	bursty := channel.GilbertChannel(0.02, 0.15) // ~12% loss, ~7-packet bursts
	tx1 := runPoint(engine.PointSpec{Code: code, Scheduler: sched.TxModel1{}, Channel: bursty, Trials: 10, Seed: 4})
	tx5 := runPoint(engine.PointSpec{Code: code, Scheduler: sched.TxModel5{}, Channel: bursty, Trials: 10, Seed: 4})
	if tx5.Failed() {
		t.Fatalf("interleaved RSE failed (%d/%d)", tx5.Failures, tx5.Trials)
	}
	if !tx1.Failed() && tx1.MeanIneff() <= tx5.MeanIneff() {
		t.Errorf("sequential RSE (%.4f) not worse than interleaved (%.4f) under bursts",
			tx1.MeanIneff(), tx5.MeanIneff())
	}
}

func TestPaperClaimTx4IsLossDistributionIndependent(t *testing.T) {
	// Figure 11: with tx4 the inefficiency barely moves across channels
	// with very different burstiness but similar feasibility.
	code, err := NewCode("ldgm-staircase", 500, 2.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	channels := []ChannelSpec{
		GilbertChannelSpec(0.01, 0.99), // IID-ish light loss
		GilbertChannelSpec(0.05, 0.50), // moderate bursts
		GilbertChannelSpec(0.10, 0.40), // heavier bursts
	}
	var vals []float64
	for _, ch := range channels {
		agg := runPoint(engine.PointSpec{Code: code, Scheduler: sched.TxModel4{}, Channel: ch, Trials: 10, Seed: 7})
		if agg.Failed() {
			t.Fatalf("tx4 failed at %+v", ch)
		}
		vals = append(vals, agg.MeanIneff())
	}
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max-min > 0.03 {
		t.Errorf("tx4 inefficiency varies too much across channels: %v", vals)
	}
}

func TestPaperClaimFig14SweetSpot(t *testing.T) {
	// Figure 14: receiving a *few* source packets first beats receiving
	// many: ineff(small s) < ineff(s = 0.75k) for LDGM Staircase.
	code, err := NewCode("ldgm-staircase", 800, 2.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(srcCount int) float64 {
		agg := runPoint(engine.PointSpec{
			Code:      code,
			Scheduler: sched.RxModel1{SourceCount: srcCount},
			Channel:   channel.NoLossChannel(),
			Trials:    10,
			Seed:      9,
		})
		if agg.Failed() {
			t.Fatalf("rx1(%d) failed", srcCount)
		}
		return agg.MeanIneff()
	}
	few := measure(40)   // ~k/20, in the paper's sweet-spot region
	many := measure(600) // 0.75k: the paper's "receiving more degrades"
	if few >= many {
		t.Errorf("fig14 shape violated: ineff(40 src)=%.4f >= ineff(600 src)=%.4f", few, many)
	}
}

func TestEndToEndDeterminism(t *testing.T) {
	plan := Plan{Codes: []string{"ldgm-triangle"}, Ks: []int{200}, Schedulers: []string{"tx4"}, Trials: 5, Seed: 77}
	for _, p := range []float64{0, 0.1, 0.4} {
		for _, q := range []float64{0.3, 0.9} {
			plan.Channels = append(plan.Channels, GilbertChannelSpec(p, q))
		}
	}
	run := func() []PointResult {
		res, err := RunPlan(context.Background(), plan, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Aggregate.String() != b[i].Aggregate.String() {
			t.Fatalf("cell %s not deterministic: %s vs %s",
				a[i].Point.Channel.Key(), a[i].Aggregate.String(), b[i].Aggregate.String())
		}
	}
}

func TestMemoryMetricOrdering(t *testing.T) {
	// RSE streams decoded blocks out, so its peak buffer is far below the
	// whole object; LDGM must buffer everything until the end.
	const k = 600
	rseCode, err := NewCode("rse", k, 2.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	ldgmCode, err := NewCode("ldgm-staircase", k, 2.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	maxBuf := func(c Code) int {
		sched := TxModel4().Schedule(c.Layout(), rand.New(rand.NewSource(3)))
		ch, _ := NewGilbertChannel(0.05, 0.5, 4)
		res := RunTrial(sched, ch, c.NewReceiver(), 0)
		if !res.Decoded {
			t.Fatal("trial failed")
		}
		return res.MaxBuffered
	}
	rseBuf, ldgmBuf := maxBuf(rseCode), maxBuf(ldgmCode)
	if rseBuf == 0 || ldgmBuf == 0 {
		t.Fatalf("memory metric missing: rse=%d ldgm=%d", rseBuf, ldgmBuf)
	}
	if rseBuf >= ldgmBuf {
		t.Errorf("RSE peak buffer %d not below LDGM %d", rseBuf, ldgmBuf)
	}
	if ldgmBuf < k {
		t.Errorf("LDGM peak buffer %d below k=%d (must hold at least the object)", ldgmBuf, k)
	}
}
