package engine

import (
	"encoding/json"
	"math"
	"testing"

	"fecperf/internal/channel"
)

func testPlan() Plan {
	return Plan{
		Codes:      []string{"ldgm-staircase", "rse"},
		Ks:         []int{60},
		Ratios:     []float64{1.5, 2.5},
		Schedulers: []string{"tx2", "tx4"},
		Channels: []channel.Spec{
			channel.GilbertChannel(0.05, 0.5),
			channel.BernoulliChannel(0.1),
			channel.NoLossChannel(),
		},
		Trials: 6,
		Seed:   11,
	}
}

func TestPlanExpansion(t *testing.T) {
	plan := testPlan()
	points, err := plan.Points()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 1 * 2 * 2 * 3 // codes × ks × ratios × schedulers × channels
	if len(points) != want || plan.NumPoints() != want {
		t.Fatalf("expanded %d points (NumPoints %d), want %d", len(points), plan.NumPoints(), want)
	}
	for i, pt := range points {
		if pt.Index != i {
			t.Fatalf("point %d has index %d", i, pt.Index)
		}
		if pt.Trials != 6 || pt.K != 60 {
			t.Fatalf("defaults not applied: %+v", pt)
		}
	}
	// Expansion order: last axis (channels here, nsents defaulting to one
	// value) varies fastest.
	if points[0].Channel.Kind != "gilbert" || points[1].Channel.Kind != "bernoulli" || points[2].Channel.Kind != "noloss" {
		t.Fatalf("channel axis not fastest: %s, %s, %s",
			points[0].Channel.Kind, points[1].Channel.Kind, points[2].Channel.Kind)
	}
	if points[0].Code != "ldgm-staircase" || points[len(points)-1].Code != "rse" {
		t.Fatal("code axis not slowest")
	}
}

func TestPlanPointSeedsStableUnderExtension(t *testing.T) {
	plan := testPlan()
	points, err := plan.Points()
	if err != nil {
		t.Fatal(err)
	}
	bySeed := map[string]int64{}
	for _, pt := range points {
		bySeed[pt.Key()] = pt.Seed
	}
	// Extending an axis must not change the seeds of existing points.
	plan.Schedulers = append(plan.Schedulers, "tx1")
	extended, err := plan.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(extended) <= len(points) {
		t.Fatal("extension did not grow the plan")
	}
	for _, pt := range extended {
		if want, ok := bySeed[pt.Key()]; ok && pt.Seed != want {
			t.Fatalf("point %s changed seed %d → %d after plan extension", pt.Key(), want, pt.Seed)
		}
	}
}

func TestPlanSeedChangesEverySeed(t *testing.T) {
	a, _ := testPlan().Points()
	plan := testPlan()
	plan.Seed = 12
	b, _ := plan.Points()
	for i := range a {
		if a[i].Seed == b[i].Seed {
			t.Fatalf("point %d kept its seed across plan seeds", i)
		}
	}
}

func TestPlanValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Plan){
		"no codes":       func(p *Plan) { p.Codes = nil },
		"bad code":       func(p *Plan) { p.Codes = []string{"zzz"} },
		"bad scheduler":  func(p *Plan) { p.Schedulers = []string{"tx9"} },
		"bad channel":    func(p *Plan) { p.Channels = []channel.Spec{{Kind: "warp"}} },
		"bad gilbert":    func(p *Plan) { p.Channels = []channel.Spec{channel.GilbertChannel(2, 0)} },
		"bad k":          func(p *Plan) { p.Ks = []int{-5} },
		"bad ratio":      func(p *Plan) { p.Ratios = []float64{0.5} },
		"NaN ratio":      func(p *Plan) { p.Ratios = []float64{math.NaN()} },
		"infinite ratio": func(p *Plan) { p.Ratios = []float64{math.Inf(1)} },
	} {
		plan := testPlan()
		mutate(&plan)
		if _, err := plan.Points(); err == nil {
			t.Errorf("%s: expansion accepted", name)
		}
	}
}

func TestPointJSONRoundTrip(t *testing.T) {
	plan := testPlan()
	plan.Channels = append(plan.Channels,
		channel.MarkovChannel(channel.ThreeStateSpec(0.2, 0.6)),
		channel.TraceChannel([]bool{true, false, true}, true),
	)
	points, err := plan.Points()
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		blob, err := json.Marshal(pt)
		if err != nil {
			t.Fatal(err)
		}
		var back Point
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		if back.Key() != pt.Key() || back.Seed != pt.Seed {
			t.Fatalf("round-trip changed identity: %s vs %s", back.Key(), pt.Key())
		}
		if err := back.Channel.Validate(); err != nil {
			t.Fatalf("deserialised channel is invalid: %v", err)
		}
	}
}

func TestChannelSpecKeysDistinct(t *testing.T) {
	specs := []channel.Spec{
		channel.GilbertChannel(0.1, 0.5),
		channel.GilbertChannel(0.5, 0.1),
		channel.BernoulliChannel(0.1),
		channel.NoLossChannel(),
		{Kind: "markov", P: 0.1, Q: 0.5},
		channel.MarkovChannel(channel.ThreeStateSpec(0.1, 0.5)),
		channel.TraceChannel([]bool{true}, false),
		channel.TraceChannel([]bool{false}, false),
	}
	seen := map[string]bool{}
	for _, s := range specs {
		k := s.Key()
		if seen[k] {
			t.Fatalf("duplicate channel key %q", k)
		}
		seen[k] = true
	}
}
