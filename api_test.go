package fecperf

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fecperf/internal/sched"
)

func TestNewCodeAllFamilies(t *testing.T) {
	for _, name := range CodeNames {
		c, err := NewCode(name, 100, 2.5, 1)
		if err != nil {
			t.Fatalf("NewCode(%q): %v", name, err)
		}
		if c.Layout().K != 100 {
			t.Fatalf("%s: wrong k", name)
		}
	}
	// Every codec family builds, the same code the codec spec names.
	for _, name := range CodecNames {
		ratio := 2.5
		if name == "no-fec" {
			ratio = 1
		}
		c, err := NewCode(name, 100, ratio, 1)
		if err != nil {
			t.Fatalf("NewCode(%q, ratio %g): %v", name, ratio, err)
		}
		want, err := CodecSpec{Family: name, K: 100, Ratio: ratio, Seed: 1}.New()
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != name || c.Layout().K != 100 || c.Layout().N != want.Layout().N {
			t.Fatalf("NewCode(%q) = %s k=%d n=%d, want %s n=%d", name, c.Name(), c.Layout().K, c.Layout().N, want.Name(), want.Layout().N)
		}
	}
	if _, err := NewCode("bogus", 100, 2.5, 1); err == nil {
		t.Fatal("NewCode accepted bogus family")
	}
}

func TestNewRSEAndLDGMDirect(t *testing.T) {
	r, err := NewCode("rse", 300, 1.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Layout().Blocks) < 2 {
		t.Fatal("expected segmentation at k=300")
	}
	l, err := CodecByName("ldgm-triangle(k=100,ratio=2.5,seed=1)")
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "ldgm-triangle" {
		t.Fatalf("Name = %q", l.Name())
	}
}

func TestRunPlanFacade(t *testing.T) {
	noloss, err := ChannelByName("noloss")
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan{
		Codes:      []string{"ldgm-staircase", "rse"},
		Ks:         []int{60},
		Ratios:     []float64{2.5},
		Schedulers: []string{"tx2"},
		Channels: []ChannelSpec{
			GilbertChannelSpec(0, 1),
			BernoulliChannelSpec(0.05),
			noloss,
			TraceChannelSpec(make([]bool, 32), false),
		},
		Trials: 4,
		Seed:   2,
	}
	res, err := RunPlan(context.Background(), plan, PlanOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != plan.NumPoints() {
		t.Fatalf("got %d results, want %d", len(res), plan.NumPoints())
	}
	for _, r := range res {
		if r.Aggregate.Trials != 4 {
			t.Fatalf("point %s ran %d trials", r.Point.Key(), r.Aggregate.Trials)
		}
	}
	// Gilbert(0,1) under tx2 is the perfect channel: inefficiency 1.
	if res[0].Aggregate.Failed() || res[0].Aggregate.MeanIneff() != 1.0 {
		t.Fatalf("perfect point aggregate: %+v", res[0].Aggregate)
	}
	if _, err := RunPlan(context.Background(), Plan{}, PlanOptions{}); err == nil {
		t.Fatal("RunPlan accepted an empty plan")
	}
}

// TestRunFleetWithoutFleetIsAnError: a spec with no fleet is refused, not
// run as a scalar point whose summary is nil.
func TestRunFleetWithoutFleetIsAnError(t *testing.T) {
	code, err := CodecByName("rse(k=64,ratio=1.5)")
	if err != nil {
		t.Fatal(err)
	}
	s, err := SchedulerByName("tx4")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := ChannelByName("gilbert(p=0.1,q=0.5)")
	if err != nil {
		t.Fatal(err)
	}
	for _, trials := range []int{5, -5} {
		spec := FleetRunSpec{Code: code, Scheduler: s, Channel: ch, Trials: trials, Seed: 1}
		if sum, err := RunFleet(context.Background(), spec, 2); err == nil {
			t.Errorf("Trials %d: RunFleet = %+v, nil; want an error", trials, sum)
		}
	}
}

func TestRunFleetFacade(t *testing.T) {
	code, err := NewCode("rse", 64, 1.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SchedulerByName("tx2")
	if err != nil {
		t.Fatal(err)
	}
	spec := FleetRunSpec{
		Code:      code,
		Scheduler: s,
		Fleet: FleetSpec{
			Receivers: 500,
			Mix: []MixComponent{
				{Channel: GilbertChannelSpec(0.1, 0.5), Weight: 2},
				{Channel: BernoulliChannelSpec(0.05)},
			},
		},
		Seed: 11,
	}
	sum, err := RunFleet(context.Background(), spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Receivers != 500 || len(sum.Groups) != 2 || sum.Completed == 0 {
		t.Fatalf("fleet summary: %+v", sum)
	}
	if sum.BytesPerReceiver > 64 {
		t.Fatalf("fleet state %g B/receiver exceeds the 64-byte budget", sum.BytesPerReceiver)
	}
	// Fleet points also run as a Plan axis.
	plan := Plan{
		Codes:      []string{"rse"},
		Ks:         []int{64},
		Ratios:     []float64{1.5},
		Schedulers: []string{"tx2"},
		Fleets:     []FleetSpec{spec.Fleet},
		Seed:       11,
	}
	res, err := RunPlan(context.Background(), plan, PlanOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Aggregate.Fleet == nil {
		t.Fatalf("fleet plan results: %+v", res)
	}
	if res[0].Aggregate.Trials != 500 {
		t.Fatalf("fleet aggregate counts %d trials, want the population", res[0].Aggregate.Trials)
	}
}

func TestMeasureWorkersDeterministic(t *testing.T) {
	point := WithSpec("codec=ldgm-staircase(k=150,ratio=2.5,seed=1),sched=tx4,channel=gilbert(p=0.1,q=0.5),trials=24,seed=6")
	seq, err := Simulate(point)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Simulate(point, WithSpec("workers=6"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Fatalf("parallel Simulate differs: %+v vs %+v", par, seq)
	}
}

func TestMeasureValidation(t *testing.T) {
	if _, err := Simulate(); err == nil {
		t.Fatal("Simulate accepted an empty configuration")
	}
	if _, err := Simulate(WithSpec("codec=ldgm-staircase(k=100,ratio=2.5,seed=1),sched=tx2,channel=gilbert(p=2,q=0)")); err == nil {
		t.Fatal("Simulate accepted p=2")
	}
}

func TestMeasurePerfectChannel(t *testing.T) {
	agg, err := Simulate(WithSpec("codec=ldgm-staircase(k=200,ratio=2.5,seed=1),sched=tx2,channel=gilbert(p=0,q=1),trials=3,seed=9"))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Failed() || agg.MeanIneff() != 1.0 {
		t.Fatalf("perfect channel aggregate: %+v", agg)
	}
}

func TestSchedulerByNameAndConstructors(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Scheduler
	}{
		{"tx1", sched.TxModel1{}},
		{"tx2", sched.TxModel2{}},
		{"tx3", sched.TxModel3{}},
		{"tx4", sched.TxModel4{}},
		{"tx5", sched.TxModel5{}},
		{"tx6", sched.TxModel6{}},
		{"tx6(frac=0.3)", sched.TxModel6{SourceFraction: 0.3}},
	} {
		s, err := SchedulerByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if s != tc.want || s.Name() != tc.name {
			t.Fatalf("SchedulerByName(%q) = %#v named %q, want %#v", tc.name, s, s.Name(), tc.want)
		}
	}
	if TxModel2() != (sched.TxModel2{}) || TxModel4() != (sched.TxModel4{}) {
		t.Fatal("TxModel2/TxModel4 differ from SchedulerByName's tx2/tx4")
	}
}

// TestSweepGridSmoke: a (p, q) grid is a plan's channel axis; RunPlan
// measures it cell by cell, in axis order, and refuses an axis value
// outside [0, 1].
func TestSweepGridSmoke(t *testing.T) {
	plan := Plan{Codes: []string{"ldgm-triangle"}, Ks: []int{100}, Schedulers: []string{"tx4"}, Trials: 3, Seed: 5}
	for _, p := range []float64{0, 0.1} {
		for _, q := range []float64{0.5, 1} {
			plan.Channels = append(plan.Channels, GilbertChannelSpec(p, q))
		}
	}
	res, err := RunPlan(context.Background(), plan, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("a 2x2 grid ran %d points", len(res))
	}
	if res[0].Point.Channel.Key() != GilbertChannelSpec(0, 0.5).Key() || res[0].Aggregate.Failed() {
		t.Fatalf("p=0 cell: %s, %s", res[0].Point.Channel.Key(), res[0].Aggregate)
	}
	plan.Channels = []ChannelSpec{GilbertChannelSpec(2, 0.5)}
	if _, err := RunPlan(context.Background(), plan, PlanOptions{}); err == nil {
		t.Fatal("accepted the axis value p=2")
	}
}

func TestRunExperimentByID(t *testing.T) {
	rep, err := RunExperiment("fig5-global-loss", ExperimentOptions{K: 50, Trials: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Format(), "p\\q") {
		t.Fatal("unexpected fig5 output")
	}
	if _, err := RunExperiment("nope", ExperimentOptions{}); err == nil {
		t.Fatal("RunExperiment accepted unknown id")
	}
}

func TestExperimentIDsNonEmpty(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 20 {
		t.Fatalf("only %d experiment ids", len(ids))
	}
}

func TestBestTupleAndUniversal(t *testing.T) {
	tuple, ineff, err := BestTuple(0.01, 0.9, 120, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tuple.Code == "" || ineff < 1 {
		t.Fatalf("BestTuple = %v / %g", tuple, ineff)
	}
	u := UniversalTuples()
	if len(u) != 2 {
		t.Fatal("universal tuples wrong")
	}
}

func TestOptimalNSentFacade(t *testing.T) {
	n, err := OptimalNSent(100, 1.1, 0.5, 0, 0)
	if err != nil || n != 220 {
		t.Fatalf("OptimalNSent = %d, %v", n, err)
	}
}

func TestGlobalLossAndEstimate(t *testing.T) {
	if GlobalLoss(0.5, 0.5) != 0.5 {
		t.Fatal("GlobalLoss wrong")
	}
	ch, err := NewGilbertChannel(0.3, 0.7, 4)
	if err != nil {
		t.Fatal(err)
	}
	trace := make([]bool, 100000)
	for i := range trace {
		trace[i] = ch.Lost()
	}
	p, q, err := EstimateGilbert(trace)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.25 || p > 0.35 || q < 0.6 || q > 0.8 {
		t.Fatalf("estimate (%g, %g) far from (0.3, 0.7)", p, q)
	}
}

func TestNewGilbertChannelValidation(t *testing.T) {
	if _, err := NewGilbertChannel(-0.1, 0.5, 1); err == nil {
		t.Fatal("accepted p=-0.1")
	}
}

func TestRunTrialFacade(t *testing.T) {
	c, _ := NewCode("ldgm-staircase", 50, 2.5, 1)
	tx1, err := SchedulerByName("tx1")
	if err != nil {
		t.Fatal(err)
	}
	schedule := tx1.Schedule(c.Layout(), rand.New(rand.NewSource(1)))
	ch, _ := NewGilbertChannel(0, 1, 1)
	res := RunTrial(schedule, ch, c.NewReceiver(), 0)
	if !res.Decoded || res.NNecessary != 50 {
		t.Fatalf("RunTrial result %+v", res)
	}
}

func TestPaperGridIsCopy(t *testing.T) {
	g := PaperGrid()
	g[0] = 99
	if PaperGrid()[0] == 99 {
		t.Fatal("PaperGrid leaks internal state")
	}
	if len(g) != 14 {
		t.Fatalf("PaperGrid has %d values", len(g))
	}
}

// TestNewCodecFacade round-trips a payload through every codec family
// the facade builds, by spec line through CodecByName.
func TestNewCodecFacade(t *testing.T) {
	for _, name := range CodecNames {
		ratio := 1.5
		if name == "no-fec" {
			ratio = 1.0
		}
		line := fmt.Sprintf("%s(k=16,ratio=%g,seed=7)", name, ratio)
		c, err := CodecByName(line)
		if err != nil {
			t.Fatalf("CodecByName(%q): %v", line, err)
		}
		src := make([][]byte, 16)
		for i := range src {
			src[i] = make([]byte, 64)
			for j := range src[i] {
				src[i][j] = byte(i*31 + j)
			}
		}
		parity, err := c.Encode(src)
		if err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		dec, err := c.NewDecoder(64)
		if err != nil {
			t.Fatalf("%s: NewDecoder: %v", name, err)
		}
		all := append(append([][]byte{}, src...), parity...)
		done := false
		for id := len(all) - 1; id >= 0 && !done; id-- {
			done = dec.ReceivePayload(id, all[id])
		}
		if !done {
			t.Fatalf("%s: lossless delivery did not decode", name)
		}
		for i := range src {
			if string(dec.Source(i)) != string(src[i]) {
				t.Fatalf("%s: source %d corrupted", name, i)
			}
		}
		dec.Close()
	}
}
