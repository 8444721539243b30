package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fecperf"
	"fecperf/internal/channel"
	"fecperf/internal/core"
)

// simWorkload is the paper's own experiment as a batch job: (a) a plan
// sweeping the three code families over two expansion ratios, four
// transmission models and a 4×3 Gilbert (p,q) grid, and (b) one fleet
// point — one transmission fanned out to a large receiver population
// with a mixed channel. It touches no transport code.
//
// Verification is determinism: the first repetition runs on one worker
// and every later one on GOMAXPROCS workers; each plan point and the
// fleet summary must come out byte-identical to that reference.
type simWorkload struct {
	plan      fecperf.Plan
	fleet     fecperf.FleetRunSpec
	reference []string // JSON of every point's aggregate, then of the fleet summary
}

const (
	simK         = 2000
	simTrials    = 20
	simReceivers = 250000
)

var simFamilies = []string{"rse", "ldgm-staircase", "ldgm-triangle"}

func newSimWorkload() workload { return &simWorkload{} }

func (w *simWorkload) name() string { return "sim-paper-grid" }
func (w *simWorkload) why() string {
	return "the paper's experiment: channel models, schedules, simulated receivers and both engines, no transport code"
}

func (w *simWorkload) prepare(seed int64, scale int) error {
	trials := simTrials / scale
	if trials < 2 {
		trials = 2
	}
	var channels []fecperf.ChannelSpec
	for _, p := range []float64{0.01, 0.05, 0.1, 0.2} {
		for _, q := range []float64{0.2, 0.5, 0.8} {
			channels = append(channels, fecperf.GilbertChannelSpec(p, q))
		}
	}
	w.plan = fecperf.Plan{
		Codes:      simFamilies,
		Ks:         []int{simK},
		Ratios:     []float64{1.5, 2.5},
		Schedulers: []string{"tx1", "tx2", "tx4", "tx5"},
		Channels:   channels,
		Trials:     trials,
		Seed:       seed,
	}
	code, err := fecperf.NewCode("rse", 256, 1.5, seed)
	if err != nil {
		return err
	}
	w.fleet = fecperf.FleetRunSpec{
		Code:      code,
		Scheduler: fecperf.TxModel2(),
		Fleet: fecperf.FleetSpec{Receivers: simReceivers / scale, Mix: []fecperf.MixComponent{
			{Channel: fecperf.GilbertChannelSpec(0.05, 0.5), Weight: 2},
			{Channel: fecperf.BernoulliChannelSpec(0.03), Weight: 1},
		}},
		Seed: seed,
	}
	w.reference = nil
	return nil
}

func (w *simWorkload) rep(ctx context.Context, tr *tracer) repResult {
	var res repResult
	workers := runtime.GOMAXPROCS(0)
	if w.reference == nil {
		workers = 1 // the reference every later repetition is checked against
	}
	m := startMeter(tr != nil)

	// (a) the plan. The gaps between successive point results are the
	// latency a user watching the sweep sees.
	var gaps []float64
	t0 := time.Now()
	prev := t0
	points, err := fecperf.RunPlan(ctx, w.plan, fecperf.PlanOptions{Workers: workers, Progress: func(fecperf.PlanProgress) {
		now := time.Now()
		gaps = append(gaps, float64(now.Sub(prev).Nanoseconds())/1e6)
		prev = now
	}})
	planEnd := time.Now()
	tr.add("engine.plan", -1, t0, planEnd)
	if err != nil {
		res.attempted, res.note = 1, "plan: "+err.Error()
		return res
	}

	// (b) the fleet.
	summary, err := fecperf.RunFleet(ctx, w.fleet, workers)
	fleetEnd := time.Now()
	tr.add("engine.fleet", -1, planEnd, fleetEnd)
	use := m.end()
	res.attempted = len(points) + 1
	if err != nil {
		res.note = "fleet: " + err.Error()
		return res
	}

	got := make([]string, 0, res.attempted)
	for _, p := range points {
		got = append(got, mustJSON(p.Aggregate))
	}
	got = append(got, mustJSON(summary))
	if w.reference == nil {
		w.reference = got
	}
	for i := range got {
		if i < len(w.reference) && got[i] == w.reference[i] {
			res.verified++
		}
	}
	if res.verified < res.attempted {
		res.note = fmt.Sprintf("%d of %d results differ between 1 and %d workers", res.attempted-res.verified, res.attempted, workers)
	}

	var trials, decodable int
	var ineff, nominal float64
	for _, p := range points {
		a := p.Aggregate
		trials += a.Trials
		nominal += float64(a.Trials-a.Failures) * float64(p.Point.K) * nominalSymbol
		if !a.Failed() && a.Ineff.N() > 0 {
			decodable++
			ineff += a.MeanIneff()
		}
	}
	nominal += float64(summary.Completed) * float64(w.fleet.Code.Layout().K) * nominalSymbol
	planS, fleetS := planEnd.Sub(t0).Seconds(), fleetEnd.Sub(planEnd).Seconds()
	res.latenciesMS = gaps
	res.e2e = perByteMetrics(nominal*float64(res.verified)/float64(res.attempted), planS+fleetS, use)
	res.e2e["chunk_latency_p50_ms"] = median(gaps)
	res.e2e["inefficiency_ratio"] = ratio(ineff, float64(decodable))
	res.e2e["delivered_ratio"] = float64(res.verified) / float64(res.attempted)
	res.e2e["trials_per_s"] = float64(trials) / planS
	res.e2e["events_per_s"] = float64(summary.Events) / fleetS
	res.layer = map[string]float64{"engine.fleet.state_bytes_per_receiver": summary.BytesPerReceiver}
	use.layerValues(res.layer)
	return res
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error() // never equal to a reference
	}
	return string(b)
}

func (w *simWorkload) layers(repResult) (map[string]float64, error) {
	out := map[string]float64{}

	// channel: the scalar chain the trial loop steps, and the batched
	// stepper the fleet engine steps.
	g := channel.NewGilbert(0.05, 0.5, rand.New(&core.SplitMixSource{}))
	var lost int
	out["channel.gilbert_step_ns"] = perCall(4096, func() {
		if g.Lost() {
			lost++
		}
	})
	st, _, err := fecperf.NewBatchImpairment("gilbert(p=0.05,q=0.5)")
	if err != nil {
		return out, err
	}
	var state uint64
	var inLoss bool
	var mask uint64
	out["channel.stepmask_ns_per_64"] = perCall(1024, func() { mask ^= st.StepMask(&state, &inLoss, 64) })
	_, _ = lost, mask

	// core: one representative grid cell per family, trial by trial; and
	// engine: the same family's slice of the plan.
	ch, err := fecperf.NewGilbertChannel(0.05, 0.5, 1)
	if err != nil {
		return out, err
	}
	rng := rand.New(&core.SplitMixSource{})
	for _, family := range simFamilies {
		code, err := fecperf.NewCode(family, simK, 1.5, w.plan.Seed)
		if err != nil {
			return out, err
		}
		tx4 := fecperf.TxModel4()
		out["core.runtrial_us."+family] = perCall(4, func() {
			fecperf.RunTrial(tx4.Schedule(code.Layout(), rng), ch, code.NewReceiver(), 0)
		}) / 1e3

		sub := w.plan
		sub.Codes = []string{family}
		sub.Trials = (w.plan.Trials + 3) / 4
		t0 := time.Now()
		points, err := fecperf.RunPlan(context.Background(), sub, fecperf.PlanOptions{})
		if err != nil {
			return out, err
		}
		out["engine.plan.trials_per_s."+family] = float64(len(points)*sub.Trials) / time.Since(t0).Seconds()
	}
	return out, nil
}
