package engine

import (
	"context"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"runtime"
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

func testFleetRunSpec(t *testing.T, schedName string) FleetRunSpec {
	t.Helper()
	code, err := codes.Make("rse", 64, 2.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ByName(schedName)
	if err != nil {
		t.Fatal(err)
	}
	return FleetRunSpec{Code: code, Scheduler: s, Fleet: testFleetSpec(), Seed: 123}
}

// fleetSchedule draws the shared schedule exactly as runFleet does.
func fleetSchedule(spec FleetRunSpec) core.Schedule {
	rng := rand.New(&core.SplitMixSource{})
	rng.Seed(DeriveSeed(spec.Seed, fleetSchedStream))
	return spec.Scheduler.Schedule(spec.Code.Layout(), rng)
}

// scalarReceiver replays one fleet receiver through the scalar pieces:
// the code's real incremental decoder and the spec's scalar channel
// chain over the receiver's derived seed. Returns the 1-based schedule
// position of completion (0 if never) and the receptions up to it.
func scalarReceiver(spec FleetRunSpec, schedule core.Schedule, fac channel.Spec, r, nsent int) (completedAt, necessary int) {
	rng := rand.New(&core.SplitMixSource{})
	rng.Seed(DeriveSeed(spec.Seed, fleetRxStream, uint64(r)))
	ch := fac.New(rng)
	rx := spec.Code.NewReceiver()
	cur := schedule.Cursor()
	received := 0
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
	return 0, 0
}

// TestFleetMatchesScalarReceivers: every fleet receiver's completion
// position and n_necessary must equal a scalar replay with the code's
// real decoder — across a permutation schedule (no dedup state), the
// interleaver, and a carousel (which forces the dedup bitmap).
func TestFleetMatchesScalarReceivers(t *testing.T) {
	for _, schedName := range []string{"tx2", "tx5", "carousel(inner=tx2,rounds=3)"} {
		spec := testFleetRunSpec(t, schedName)
		schedule := fleetSchedule(spec)
		nsent := schedule.Len()
		st, err := newFleetState(spec.Code.Layout(), spec.Fleet, schedule, nsent, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		wantDedup := !schedule.DistinctIDs()
		if (st.seen != nil) != wantDedup {
			t.Fatalf("%s: dedup bitmap allocated=%t, want %t", schedName, st.seen != nil, wantDedup)
		}
		for _, sh := range st.shardTasks() {
			if _, ok := st.runShard(context.Background(), sh); !ok {
				t.Fatalf("%s: shard cancelled", schedName)
			}
		}
		for gi, g := range st.groups {
			fac := spec.Fleet.Mix[gi].Channel
			for r := g.lo; r < g.hi; r++ {
				wantAt, wantNec := scalarReceiver(spec, schedule, fac, r, nsent)
				gotAt := int(st.completedAt[r])
				if gotAt != wantAt {
					t.Fatalf("%s receiver %d (%s): fleet completed at %d, scalar at %d",
						schedName, r, g.key, gotAt, wantAt)
				}
				if gotAt > 0 && int(st.received[r]) != wantNec {
					t.Fatalf("%s receiver %d (%s): fleet n_necessary %d, scalar %d",
						schedName, r, g.key, st.received[r], wantNec)
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
		base, err := RunFleet(context.Background(), spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if base.Completed == 0 {
			t.Fatalf("%s: no receiver completed", schedName)
		}
		want := marshalAny(t, base)
		for _, workers := range []int{2, 3, 8} {
			got, err := RunFleet(context.Background(), spec, workers)
			if err != nil {
				t.Fatal(err)
			}
			if marshalAny(t, got) != want {
				t.Fatalf("%s: workers=%d summary differs from workers=1", schedName, workers)
			}
		}
	}
}

// TestRunPointSpecsMixesFleetAndScalarPoints: fleet and scalar specs are
// one work unit, so one batch may hold both, and each point's aggregate
// equals running it alone.
func TestRunPointSpecsMixesFleetAndScalarPoints(t *testing.T) {
	fleet := testFleetRunSpec(t, "tx2")
	scalar := PointSpec{Code: fleet.Code, Scheduler: fleet.Scheduler,
		Channel: channel.GilbertChannel(0.1, 0.5), Trials: 12, Seed: 9}
	aggs, err := RunPointSpecs(context.Background(), []PointSpec{scalar, fleet, scalar}, 3)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := RunFleet(context.Background(), fleet, 1)
	if err != nil {
		t.Fatal(err)
	}
	if aggs[1].Fleet == nil || marshalAny(t, aggs[1].Fleet) != marshalAny(t, alone) {
		t.Fatal("fleet point in a mixed batch differs from RunFleet alone")
	}
	if aggs[1].Trials != fleet.Fleet.Receivers {
		t.Fatalf("fleet aggregate counts %d trials, want its %d receivers", aggs[1].Trials, fleet.Fleet.Receivers)
	}
	want, err := RunPoint(context.Background(), scalar, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if aggs[i].Fleet != nil || marshalAny(t, aggs[i]) != marshalAny(t, want) {
			t.Fatalf("scalar point %d in a mixed batch differs from RunPoint alone", i)
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
// same registry as RunFleet's callers, so rse16 and no-fec fleet points
// run inside plans and summarise exactly as RunFleet does on the same
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
		code, err := codes.MakeCodec(tc.code, pt.K, pt.Ratio, pt.CodeSeed)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.ByName(pt.Scheduler)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunFleet(context.Background(), FleetRunSpec{Code: code, Scheduler: s, Fleet: *pt.Fleet, Seed: pt.Seed}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := res[0].Aggregate.Fleet; got == nil || marshalAny(t, got) != marshalAny(t, want) {
			t.Fatalf("%s: plan fleet summary differs from RunFleet", tc.code)
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
	counts := f.apportion()
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
	if got := f.apportion(); got[2] == 0 {
		t.Fatalf("zero-weight component got no receivers: %v", got)
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
	code, err := codes.Make("rse", 256, 1.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ByName("tx2")
	if err != nil {
		t.Fatal(err)
	}
	spec := FleetRunSpec{
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
	sum, err := RunFleet(context.Background(), spec, 0)
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
	code, err := codes.Make("rse", 64, 1.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ByName("tx2")
	if err != nil {
		t.Fatal(err)
	}
	spec := FleetRunSpec{
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
	sum1, err := RunFleet(context.Background(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum4, err := RunFleet(context.Background(), spec, 4)
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
