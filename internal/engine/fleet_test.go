package engine

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fecperf/internal/channel"
	"fecperf/internal/codes"
	"fecperf/internal/core"
	"fecperf/internal/sched"
)

func testFleetSpec() FleetSpec {
	return FleetSpec{
		Receivers: 600,
		Mix: []MixComponent{
			{Channel: channel.GilbertChannel(0.1, 0.5), Weight: 3},
			{Channel: channel.BernoulliChannel(0.05), Weight: 2},
			{Channel: channel.NoLossChannel(), Weight: 1},
		},
	}
}

func testFleetRunSpec(t *testing.T, schedName string) PointSpec {
	t.Helper()
	code, err := codes.Spec{Family: "rse", K: 64, Ratio: 2.0, Seed: 7}.New()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ByName(schedName)
	if err != nil {
		t.Fatal(err)
	}
	return PointSpec{Code: code, Scheduler: s, Fleet: testFleetSpec(), Seed: 123}
}

// fleetSummary runs one fleet point and returns its summary, as the
// facade's RunFleet does.
func fleetSummary(ctx context.Context, spec PointSpec, workers int) (*FleetSummary, error) {
	agg, err := RunPoint(ctx, spec, workers)
	return agg.Fleet, err
}

// fleetSchedule draws the shared schedule exactly as runFleet does.
func fleetSchedule(spec PointSpec) core.Schedule {
	rng := rand.New(&core.SplitMixSource{})
	rng.Seed(core.DeriveSeed(spec.Seed, fleetSchedStream))
	return spec.Scheduler.Schedule(spec.Code.Layout(), rng)
}

// scalarReceiver replays one fleet receiver through the scalar pieces:
// the code's real incremental decoder and the spec's chain (Spec.New)
// over the receiver's derived seed, stepped one transmission at a time. Returns the 1-based schedule
// position of completion (0 if never) and the receptions up to it (all
// nsent positions' receptions if never).
func scalarReceiver(spec PointSpec, schedule core.Schedule, fac channel.Spec, r, nsent int) (completedAt, received int) {
	ch := fac.New(uint64(core.DeriveSeed(spec.Seed, fleetRxStream, uint64(r))))
	rx := spec.Code.NewReceiver()
	cur := schedule.Cursor()
	for i := 0; i < nsent; i++ {
		id, _ := cur.Next()
		if ch.Lost() {
			continue
		}
		received++
		if rx.Receive(id) {
			return i + 1, received
		}
	}
	return 0, received
}

// checkFleetAgainstScalar runs every shard of spec's fleet over nsent
// schedule positions and compares each receiver's completion position
// and reception count with scalarReceiver's. It returns the fleet
// state for further checks.
func checkFleetAgainstScalar(t *testing.T, name string, spec PointSpec, nsent int) *fleetState {
	t.Helper()
	schedule := fleetSchedule(spec)
	if nsent <= 0 {
		nsent = schedule.Len()
	}
	st, err := newFleetState(spec.Code.Layout(), spec.Fleet, schedule, nsent, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range st.shardTasks() {
		if _, ok := st.runShard(context.Background(), sh); !ok {
			t.Fatalf("%s: shard cancelled", name)
		}
	}
	for gi, g := range st.groups {
		fac := spec.Fleet.Mix[gi].Channel
		for r := g.lo; r < g.hi; r++ {
			wantAt, wantRecv := scalarReceiver(spec, schedule, fac, r, nsent)
			if gotAt, gotRecv := int(st.completedAt[r]), int(st.received[r]); gotAt != wantAt || gotRecv != wantRecv {
				t.Fatalf("%s receiver %d (%s): fleet completed at %d with %d received, scalar at %d with %d",
					name, r, g.key, gotAt, gotRecv, wantAt, wantRecv)
			}
		}
	}
	return st
}

// TestFleetMatchesScalarReceivers: every fleet receiver's completion
// position and n_necessary must equal a scalar replay with the code's
// real decoder — across a permutation schedule (no dedup state), the
// interleaver, and a carousel (which forces the dedup bitmap).
func TestFleetMatchesScalarReceivers(t *testing.T) {
	for _, schedName := range []string{"tx2", "tx5", "carousel(inner=tx2,rounds=3)"} {
		spec := testFleetRunSpec(t, schedName)
		st := checkFleetAgainstScalar(t, schedName, spec, 0)
		if wantDedup := !st.schedule.DistinctIDs(); (st.seen != nil) != wantDedup {
			t.Fatalf("%s: dedup bitmap allocated=%t, want %t", schedName, st.seen != nil, wantDedup)
		}
	}
}

// TestFleetCountdownEdgeCases drives the per-word block countdown
// through the layouts and cut-offs where a popcount could miscount,
// each against the scalar replay: a word of 64 one-symbol blocks
// (no-fec), many RS blocks (k=2000), a schedule cut mid-word, lossless
// receivers completing exactly at a word's first and last bit, and a
// carousel over fewer than 64 symbols, so one word repeats ids.
func TestFleetCountdownEdgeCases(t *testing.T) {
	mixed := testFleetSpec()
	lossless := FleetSpec{Receivers: 3, Mix: []MixComponent{{Channel: channel.NoLossChannel()}}}
	cases := []struct {
		name   string
		code   string
		k      int
		ratio  float64
		sched  string
		fleet  FleetSpec
		nsent  int
		wantAt int // the lossless receivers' completion position, when > 0
	}{
		{name: "no-fec", code: "no-fec", k: 300, ratio: 1, sched: "tx2", fleet: mixed},
		{name: "rse k=2000", code: "rse", k: 2000, ratio: 1.5, sched: "tx2", fleet: mixed},
		{name: "nsent mid-word", code: "rse", k: 64, ratio: 2, sched: "tx2", fleet: mixed, nsent: 100},
		{name: "completes at bit 0", code: "no-fec", k: 65, ratio: 1, sched: "tx1", fleet: lossless, wantAt: 65},
		{name: "completes at bit 63", code: "no-fec", k: 128, ratio: 1, sched: "tx1", fleet: lossless, wantAt: 128},
		// Most receivers miss a symbol in the first round, so repeats count.
		{name: "carousel n<64", code: "no-fec", k: 40, ratio: 1, sched: "carousel(inner=tx2,rounds=8)", fleet: mixed},
		{name: "rse carousel n<64", code: "rse", k: 24, ratio: 1.25, sched: "carousel(inner=tx2,rounds=8)", fleet: mixed},
	}
	for _, c := range cases {
		code, err := codes.Spec{Family: c.code, K: c.k, Ratio: c.ratio, Seed: 7}.New()
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.ByName(c.sched)
		if err != nil {
			t.Fatal(err)
		}
		spec := PointSpec{Code: code, Scheduler: s, Fleet: c.fleet, Seed: 321}
		st := checkFleetAgainstScalar(t, c.name, spec, c.nsent)
		if c.wantAt > 0 {
			for r, at := range st.completedAt {
				if int(at) != c.wantAt {
					t.Fatalf("%s: lossless receiver %d completed at %d, want %d", c.name, r, at, c.wantAt)
				}
			}
		}
	}
}

// TestFleetWorkerCountIndependence: the summary must be byte-identical
// for every worker count, including the events counter.
func TestFleetWorkerCountIndependence(t *testing.T) {
	for _, schedName := range []string{"tx2", "carousel(inner=tx3,rounds=2)"} {
		spec := testFleetRunSpec(t, schedName)
		base, err := fleetSummary(context.Background(), spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if base.Completed == 0 {
			t.Fatalf("%s: no receiver completed", schedName)
		}
		want := marshalAny(t, base)
		for _, workers := range []int{2, 3, 8} {
			got, err := fleetSummary(context.Background(), spec, workers)
			if err != nil {
				t.Fatal(err)
			}
			if marshalAny(t, got) != want {
				t.Fatalf("%s: workers=%d summary differs from workers=1", schedName, workers)
			}
		}
	}
}

// TestRunPointsMixesFleetAndScalarPoints: fleet and scalar points are
// one work unit, so one point list may hold both, and each point's
// aggregate equals running it alone.
func TestRunPointsMixesFleetAndScalarPoints(t *testing.T) {
	fleet := testFleetRunSpec(t, "tx2")
	fs := testFleetSpec()
	scalarPt := Point{Code: "rse", K: 64, Ratio: 2.0, Scheduler: "tx2",
		Channel: channel.GilbertChannel(0.1, 0.5), Trials: 12, Seed: 9, CodeSeed: 7}
	fleetPt := Point{Code: "rse", K: 64, Ratio: 2.0, Scheduler: "tx2", Fleet: &fs, Seed: fleet.Seed, CodeSeed: 7}
	res, err := RunPoints(context.Background(), []Point{scalarPt, fleetPt, scalarPt}, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	aggs := make([]Aggregate, len(res))
	for i, r := range res {
		aggs[i] = r.Aggregate
	}
	alone, err := fleetSummary(context.Background(), fleet, 1)
	if err != nil {
		t.Fatal(err)
	}
	if aggs[1].Fleet == nil || marshalAny(t, aggs[1].Fleet) != marshalAny(t, alone) {
		t.Fatal("fleet point in a mixed list differs from the point run alone")
	}
	if aggs[1].Trials != fleet.Fleet.Receivers {
		t.Fatalf("fleet aggregate counts %d trials, want its %d receivers", aggs[1].Trials, fleet.Fleet.Receivers)
	}
	scalar := PointSpec{Code: fleet.Code, Scheduler: fleet.Scheduler,
		Channel: scalarPt.Channel, Trials: scalarPt.Trials, Seed: scalarPt.Seed}
	want, err := RunPoint(context.Background(), scalar, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if aggs[i].Fleet != nil || marshalAny(t, aggs[i]) != marshalAny(t, want) {
			t.Fatalf("scalar point %d in a mixed list differs from RunPoint alone", i)
		}
	}

	// A fleet of zero receivers is still a fleet, and says what is wrong.
	fleet.Fleet.Receivers = 0
	if _, err := RunPoint(context.Background(), fleet, 1); err == nil || !strings.Contains(err.Error(), "receiver count") {
		t.Fatalf("zero-receiver fleet: %v", err)
	}
}

// TestFleetPlanAxis: a Fleets plan expands into fleet points whose
// aggregates carry the fleet summary, and the whole run is
// deterministic across worker counts.
func TestFleetPlanAxis(t *testing.T) {
	plan := fleetGoldenPlan()
	if got, want := plan.NumPoints(), 4; got != want {
		t.Fatalf("NumPoints = %d, want %d", got, want)
	}
	res1, err := Run(context.Background(), plan, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res1 {
		if r.Point.Fleet == nil {
			t.Fatalf("point %s is not a fleet point", r.Point.Key())
		}
		if r.Aggregate.Fleet == nil {
			t.Fatalf("point %s has no fleet summary", r.Point.Key())
		}
		agg := r.Aggregate
		if agg.Trials != agg.Fleet.Receivers || agg.Failures != agg.Fleet.Receivers-agg.Fleet.Completed {
			t.Fatalf("point %s: aggregate counters %d/%d disagree with fleet %d/%d",
				r.Point.Key(), agg.Trials, agg.Failures, agg.Fleet.Receivers, agg.Fleet.Completed)
		}
	}
	res8, err := Run(context.Background(), plan, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if marshal(t, res1) != marshal(t, res8) {
		t.Fatal("fleet plan results differ across worker counts")
	}
}

// TestFleetPlanBuildsEveryCodecFamily: a plan builds its codes from the
// same registry as one-point callers, so rse16 and no-fec fleet points
// run inside plans and summarise exactly as RunPoint does on the same
// code and the point's seed.
func TestFleetPlanBuildsEveryCodecFamily(t *testing.T) {
	for _, tc := range []struct {
		code  string
		ratio float64
	}{{"rse16", 1.5}, {"no-fec", 1}} {
		plan := Plan{
			Codes:      []string{tc.code},
			Ks:         []int{256},
			Ratios:     []float64{tc.ratio},
			Schedulers: []string{"tx4"},
			Fleets:     []FleetSpec{testFleetSpec()},
			Seed:       5,
		}
		res, err := Run(context.Background(), plan, Options{Workers: 2})
		if err != nil {
			t.Fatalf("%s plan: %v", tc.code, err)
		}
		pt := res[0].Point
		code, err := codes.Spec{Family: tc.code, K: pt.K, Ratio: pt.Ratio, Seed: pt.CodeSeed}.New()
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.ByName(pt.Scheduler)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fleetSummary(context.Background(), PointSpec{Code: code, Scheduler: s, Fleet: *pt.Fleet, Seed: pt.Seed}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := res[0].Aggregate.Fleet; got == nil || marshalAny(t, got) != marshalAny(t, want) {
			t.Fatalf("%s: plan fleet summary differs from RunPoint", tc.code)
		}
	}
}

// TestFleetCheckpointResume: a finished fleet point restores from the
// checkpoint byte-identically instead of recomputing.
func TestFleetCheckpointResume(t *testing.T) {
	plan := fleetGoldenPlan()
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	res1, err := Run(context.Background(), plan, Options{Workers: 2, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	restored := 0
	res2, err := Run(context.Background(), plan, Options{
		Workers:        2,
		CheckpointPath: path,
		Progress: func(p Progress) {
			if p.FromCheckpoint {
				restored++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if restored != len(res1) {
		t.Fatalf("restored %d of %d fleet points", restored, len(res1))
	}
	if marshal(t, res1) != marshal(t, res2) {
		t.Fatal("restored fleet results differ from computed ones")
	}
}

// TestFleetRejectsIterativeCodes: LDGM decodes iteratively, not at a
// per-block threshold, so fleet mode must refuse it.
func TestFleetRejectsIterativeCodes(t *testing.T) {
	plan := fleetGoldenPlan()
	plan.Codes = []string{"ldgm-staircase"}
	_, err := Run(context.Background(), plan, Options{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "block-MDS") {
		t.Fatalf("fleet with ldgm-staircase: err = %v, want block-MDS rejection", err)
	}
}

// TestFleetValidate: spec-level rejections.
func TestFleetValidate(t *testing.T) {
	good := testFleetSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		f    FleetSpec
	}{
		{"zero receivers", FleetSpec{Mix: good.Mix}},
		{"empty mix", FleetSpec{Receivers: 10}},
		{"negative weight", FleetSpec{Receivers: 10, Mix: []MixComponent{{Channel: channel.NoLossChannel(), Weight: -1}}}},
		{"markov mix", FleetSpec{Receivers: 10, Mix: []MixComponent{{Channel: channel.MarkovChannel(channel.ThreeStateSpec(0.1, 0.5))}}}},
		{"trace mix", FleetSpec{Receivers: 10, Mix: []MixComponent{{Channel: channel.TraceChannel([]bool{true, false}, false)}}}},
		{"bad gilbert", FleetSpec{Receivers: 10, Mix: []MixComponent{{Channel: channel.GilbertChannel(1.5, 0.5)}}}},
		{"NaN weight", weighted(math.NaN(), 1)},
		{"+Inf weight", weighted(math.Inf(1), 1)},
		{"-Inf weight", weighted(math.Inf(-1), 1)},
		{"weights overflow their sum", weighted(1e308, 1e308)},
	}
	for _, c := range cases {
		if err := c.f.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.f)
		}
	}
}

// TestFleetApportion: largest-remainder assignment is exact, ordered
// and deterministic.
func TestFleetApportion(t *testing.T) {
	f := FleetSpec{
		Receivers: 601,
		Mix: []MixComponent{
			{Channel: channel.GilbertChannel(0.1, 0.5), Weight: 3},
			{Channel: channel.BernoulliChannel(0.05), Weight: 2},
			{Channel: channel.NoLossChannel(), Weight: 1},
		},
	}
	counts, err := f.apportion()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != f.Receivers {
		t.Fatalf("apportioned %d receivers, want %d", total, f.Receivers)
	}
	// 601·(3,2,1)/6 = (300.5, 200.33, 100.17): floors 300+200+100, the
	// one leftover goes to the largest fraction (component 0).
	if counts[0] != 301 || counts[1] != 200 || counts[2] != 100 {
		t.Fatalf("apportion = %v, want [301 200 100]", counts)
	}
	// A zero weight means one share, not zero receivers.
	f.Mix[2].Weight = 0
	if got, _ := f.apportion(); got[2] == 0 {
		t.Fatalf("zero-weight component got no receivers: %v", got)
	}
}

// weighted is a 1000-receiver two-component mix with weights w0 and w1.
func weighted(w0, w1 float64) FleetSpec {
	return FleetSpec{Receivers: 1000, Mix: []MixComponent{
		{Channel: channel.NoLossChannel(), Weight: w0},
		{Channel: channel.BernoulliChannel(0.1), Weight: w1},
	}}
}

// TestFleetApportionWeights: weights near the float64 limit apportion
// like any others — each share is divided by the total before it is
// scaled — and a sum that overflows is an error, not a count loop.
func TestFleetApportionWeights(t *testing.T) {
	cases := []struct {
		name string
		f    FleetSpec
		want []int // nil: an error
	}{
		{"ordinary", weighted(3, 1), []int{750, 250}},
		{"huge equal", weighted(1e308, 5e307), []int{667, 333}},
		{"huge times receivers", weighted(1e306, 1e306), []int{500, 500}},
		{"tiny", weighted(5e-324, 5e-324), []int{500, 500}},
		{"sum overflows", weighted(1e308, 1e308), nil},
		{"NaN", weighted(math.NaN(), 1), nil},
		{"+Inf", weighted(math.Inf(1), 1), nil},
	}
	for _, c := range cases {
		got, err := c.f.apportion()
		if c.want == nil {
			if err == nil {
				t.Errorf("%s: apportion = %v, want an error", c.name, got)
			}
			continue
		}
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("%s: apportion = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
}

// TestFleetPercentiles: nearest-rank semantics, with -1 past the
// completed fraction, over one sorted run or the same keys split across
// several; val maps the picked keys to values.
func TestFleetPercentiles(t *testing.T) {
	half := func(x uint32) float64 { return float64(x) / 2 }
	for name, runs := range map[string][][]uint32{
		"one run": {{10, 20, 30, 40, 50, 60, 70, 80, 90}}, // 9 of 10 completed
		"three":   {{20, 50, 80}, {10, 40, 70}, {30, 60, 90}},
		"uneven":  {{}, {10, 20, 30, 40, 50, 60}, {70, 80, 90}},
	} {
		p := percentilesOf(runs, 10, half)
		if p.P50 != 25 || p.P90 != 45 {
			t.Fatalf("%s: p50=%g p90=%g, want 25 45", name, p.P50, p.P90)
		}
		if p.P99 != -1 || p.P999 != -1 {
			t.Fatalf("%s: p99=%g p999=%g, want -1 -1 (rank lands on the incomplete receiver)", name, p.P99, p.P999)
		}
	}
	if e := percentilesOf(nil, 0, half); e.P50 != -1 {
		t.Fatalf("empty population p50 = %g, want -1", e.P50)
	}
	// Two percentiles on one rank read the same key.
	if p := percentilesOf([][]uint32{{7}, {3}}, 2, half); p != (FleetPercentiles{1.5, 3.5, 3.5, 3.5}) {
		t.Fatalf("n=2: %+v, want p50 1.5 and the rest 3.5", p)
	}
}

// TestFleetCeiling is the acceptance-criteria run: a 10⁶-receiver fleet
// at one (code, tx, channel-mix) point completes with ≤64 bytes of
// steady-state fleet state per receiver. Skipped under -short and the
// race detector (the shadow memory would multiply the footprint).
func TestFleetCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("1e6-receiver fleet skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("1e6-receiver fleet skipped under the race detector")
	}
	code, err := codes.Spec{Family: "rse", K: 256, Ratio: 1.5, Seed: 7}.New()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ByName("tx2")
	if err != nil {
		t.Fatal(err)
	}
	spec := PointSpec{
		Code:      code,
		Scheduler: s,
		Fleet: FleetSpec{
			Receivers: 1_000_000,
			Mix: []MixComponent{
				{Channel: channel.GilbertChannel(0.05, 0.5), Weight: 2},
				{Channel: channel.BernoulliChannel(0.03), Weight: 1},
			},
		},
		Seed: 42,
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sum, err := fleetSummary(context.Background(), spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	if sum.BytesPerReceiver > 64 {
		t.Fatalf("fleet state is %.1f B/receiver, budget is 64", sum.BytesPerReceiver)
	}
	// The whole run — state arrays plus everything transient — must stay
	// far under the 256 MiB the issue budgets for 10⁶ receivers.
	if used := after.TotalAlloc - before.TotalAlloc; used > 256<<20 {
		t.Fatalf("fleet run allocated %d MiB total, budget 256", used>>20)
	}
	if sum.Completed < sum.Receivers*99/100 {
		t.Fatalf("only %d of %d receivers completed", sum.Completed, sum.Receivers)
	}
	if sum.Events < 100_000_000 {
		t.Fatalf("run stepped only %d events, expected ≥1e8 for 1e6 receivers", sum.Events)
	}
	t.Logf("1e6 receivers: %.1f B/receiver, %d events, completed %d, p99 completion %v symbols",
		sum.BytesPerReceiver, sum.Events, sum.Completed, sum.Completion.P99)
}

// TestFleetSmoke10kReceivers is the CI smoke: a 10⁴-receiver fleet that
// is cheap enough to run under the race detector, checked for the
// byte-per-receiver budget and worker-count determinism.
func TestFleetSmoke10kReceivers(t *testing.T) {
	code, err := codes.Spec{Family: "rse", K: 64, Ratio: 1.5, Seed: 7}.New()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ByName("tx2")
	if err != nil {
		t.Fatal(err)
	}
	spec := PointSpec{
		Code:      code,
		Scheduler: s,
		Fleet: FleetSpec{
			Receivers: 10_000,
			Mix: []MixComponent{
				{Channel: channel.GilbertChannel(0.05, 0.5), Weight: 2},
				{Channel: channel.BernoulliChannel(0.03), Weight: 1},
			},
		},
		Seed: 42,
	}
	sum1, err := fleetSummary(context.Background(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum4, err := fleetSummary(context.Background(), spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if marshalAny(t, sum1) != marshalAny(t, sum4) {
		t.Fatal("10k-receiver summary differs between 1 and 4 workers")
	}
	if sum1.BytesPerReceiver > 64 {
		t.Fatalf("fleet state is %.1f B/receiver, budget is 64", sum1.BytesPerReceiver)
	}
	if sum1.Completed < sum1.Receivers*99/100 {
		t.Fatalf("only %d of %d receivers completed", sum1.Completed, sum1.Receivers)
	}
}

func marshalAny(t *testing.T, v any) string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}
