package engine

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"fecperf/internal/channel"
	"fecperf/internal/codes"
	"fecperf/internal/obs"
	"fecperf/internal/sched"
)

func smallPlan() Plan {
	return Plan{
		Codes:      []string{"ldgm-staircase"},
		Ks:         []int{80},
		Ratios:     []float64{2.5},
		Schedulers: []string{"tx2", "tx4"},
		Channels: []channel.Spec{
			channel.GilbertChannel(0, 1),
			channel.GilbertChannel(0.05, 0.5),
			channel.GilbertChannel(0.2, 0.5),
			channel.BernoulliChannel(0.1),
		},
		Trials: 20,
		Seed:   3,
	}
}

// marshal canonicalises results for byte-identity comparison.
func marshal(t *testing.T, res any) string {
	t.Helper()
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	plan := smallPlan()
	var baseline string
	for _, workers := range []int{1, 8} {
		res, err := Run(context.Background(), plan, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := marshal(t, res)
		if baseline == "" {
			baseline = got
			continue
		}
		if got != baseline {
			t.Fatalf("workers=%d produced different bytes than workers=1", workers)
		}
	}
}

func TestRunPointDeterministicAcrossWorkerCounts(t *testing.T) {
	code, err := codes.Spec{Family: "ldgm-staircase", K: 120, Ratio: 2.5, Seed: 7}.New()
	if err != nil {
		t.Fatal(err)
	}
	spec := PointSpec{
		Code:      code,
		Scheduler: sched.TxModel4{},
		Channel:   channel.GilbertChannel(0.1, 0.5),
		Trials:    50,
		Seed:      99,
	}
	base, err := RunPoint(context.Background(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.Trials != 50 {
		t.Fatalf("ran %d trials, want 50", base.Trials)
	}
	for _, workers := range []int{2, 4, 8} {
		agg, err := RunPoint(context.Background(), spec, workers)
		if err != nil {
			t.Fatal(err)
		}
		if agg != base {
			t.Fatalf("workers=%d aggregate differs: %+v vs %+v", workers, agg, base)
		}
	}
}

func TestRunStreamsAndReportsProgress(t *testing.T) {
	plan := smallPlan()
	var (
		mu       sync.Mutex
		streamed = map[int]PointResult{}
	)
	res, err := Run(context.Background(), plan, Options{
		Workers: 4,
		Progress: func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			if p.Done != len(streamed)+1 || p.Total != plan.NumPoints() {
				t.Errorf("progress %d/%d after %d points", p.Done, p.Total, len(streamed))
			}
			streamed[p.Point.Index] = PointResult{Point: p.Point, Aggregate: p.Aggregate}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res) {
		t.Fatalf("progress reported %d points, want %d", len(streamed), len(res))
	}
	for _, r := range res {
		if marshal(t, streamed[r.Point.Index]) != marshal(t, r) {
			t.Fatalf("point %d: progress carried a different result than Run returned", r.Point.Index)
		}
	}
	// p=0 under tx2 decodes with inefficiency exactly 1 (source first).
	if res[0].Aggregate.Failed() || res[0].Aggregate.MeanIneff() != 1.0 {
		t.Fatalf("perfect-channel point: %+v", res[0].Aggregate)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	plan := smallPlan()
	var done int32
	_, err := Run(ctx, plan, Options{
		Workers: 2,
		Progress: func(Progress) {
			if atomic.AddInt32(&done, 1) == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if int(atomic.LoadInt32(&done)) >= plan.NumPoints() {
		t.Fatal("cancellation did not stop the run early")
	}
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	plan := smallPlan()
	clean, err := Run(context.Background(), plan, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(t, clean)

	// First run: killed (cancelled) after a few points hit the checkpoint.
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	var done int32
	_, err = Run(ctx, plan, Options{
		Workers:        2,
		CheckpointPath: path,
		Progress: func(Progress) {
			if atomic.AddInt32(&done, 1) == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first run err = %v, want context.Canceled", err)
	}

	// Second run resumes: checkpointed points restore, the rest recompute.
	var resumed, computed int32
	res, err := Run(context.Background(), plan, Options{
		Workers:        4,
		CheckpointPath: path,
		Progress: func(ev Progress) {
			if ev.FromCheckpoint {
				atomic.AddInt32(&resumed, 1)
			} else {
				atomic.AddInt32(&computed, 1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed == 0 {
		t.Fatal("resume recomputed every point")
	}
	if int(resumed+computed) != plan.NumPoints() {
		t.Fatalf("resumed %d + computed %d != %d points", resumed, computed, plan.NumPoints())
	}
	if got := marshal(t, res); got != want {
		t.Fatal("resumed run is not byte-identical to a clean run")
	}

	// Third run: everything restores, nothing recomputes.
	var recomputed int32
	res, err = Run(context.Background(), plan, Options{
		CheckpointPath: path,
		Progress: func(ev Progress) {
			if !ev.FromCheckpoint {
				atomic.AddInt32(&recomputed, 1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if recomputed != 0 {
		t.Fatalf("full checkpoint still recomputed %d points", recomputed)
	}
	if got := marshal(t, res); got != want {
		t.Fatal("fully-resumed run is not byte-identical to a clean run")
	}
}

func TestCheckpointIgnoresDifferentSeed(t *testing.T) {
	plan := smallPlan()
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if _, err := Run(context.Background(), plan, Options{CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	plan.Seed = 4
	var resumed int32
	if _, err := Run(context.Background(), plan, Options{
		CheckpointPath: path,
		Progress: func(ev Progress) {
			if ev.FromCheckpoint {
				atomic.AddInt32(&resumed, 1)
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("checkpoint written under seed 3 satisfied %d points of a seed-4 plan", resumed)
	}
}

func TestCheckpointToleratesTornTail(t *testing.T) {
	plan := smallPlan()
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if _, err := Run(context.Background(), plan, Options{CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-write: chop the last line in half.
	if err := os.WriteFile(path, blob[:len(blob)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	var resumed int32
	if _, err := Run(context.Background(), plan, Options{
		CheckpointPath: path,
		Progress: func(ev Progress) {
			if ev.FromCheckpoint {
				atomic.AddInt32(&resumed, 1)
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if int(resumed) != plan.NumPoints()-1 {
		t.Fatalf("resumed %d points after torn tail, want %d", resumed, plan.NumPoints()-1)
	}
}

func TestRunPointZeroTrialsDefaultsTo100(t *testing.T) {
	code, err := codes.Spec{Family: "ldgm-staircase", K: 40, Ratio: 2.5, Seed: 1}.New()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := RunPoint(context.Background(), PointSpec{
		Code:      code,
		Scheduler: sched.TxModel2{},
		Channel:   channel.NoLossChannel(),
		Seed:      1,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Trials != 100 {
		t.Fatalf("default trials = %d, want 100", agg.Trials)
	}
}

// TestCheckpointParentFormatRestores feeds the engine checkpoint lines
// exactly as the pre-channel.Spec binary wrote them (fecsim -resume):
// the configuration key and the derived seed must still match, so the
// point is restored and not one trial runs.
func TestCheckpointParentFormatRestores(t *testing.T) {
	for _, c := range []struct {
		plan Plan
		line string
	}{
		{
			Plan{Codes: []string{"rse"}, Ks: []int{200}, Ratios: []float64{2.5}, Schedulers: []string{"tx5"},
				Channels: []channel.Spec{channel.GilbertChannel(0.2, 0.2)}, NSents: []int{0}, Trials: 8, Seed: 1},
			`{"key":"code=rse|k=200|ratio=2.5|sched=tx5|ch=gilbert(p=0.2,q=0.2)|trials=8|nsent=0|cseed=1","seed":3632278288989233998,"aggregate":{"trials":8,"failures":0,"ineff":{"n":8,"mean":1.016875,"m2":0.0014468749999999994,"min":1,"max":1.045},"received_over_k":{"n":8,"mean":1.2106249999999998,"m2":0.048121875,"min":1.085,"max":1.305}}}`,
		},
		{
			Plan{Codes: []string{"ldgm-staircase"}, Ks: []int{200}, Ratios: []float64{2.5}, Schedulers: []string{"tx2"},
				Channels: []channel.Spec{{Kind: "markov", P: 0.1, Q: 0}}, NSents: []int{0}, Trials: 8, Seed: 1},
			`{"key":"code=ldgm-staircase|k=200|ratio=2.5|sched=tx2|ch=markov(p=0.1,q=0)|trials=8|nsent=0|cseed=1","seed":-2206542759027845891,"aggregate":{"trials":8,"failures":8,"ineff":{"n":0,"mean":0,"m2":0,"min":0,"max":0},"received_over_k":{"n":8,"mean":0.08812500000000001,"m2":0.054596875,"min":0.005,"max":0.26}}}`,
		},
	} {
		path := filepath.Join(t.TempDir(), "parent.jsonl")
		if err := os.WriteFile(path, []byte(c.line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry("fecperf")
		restored := false
		res, err := Run(context.Background(), c.plan, Options{
			CheckpointPath: path,
			Metrics:        reg,
			Progress:       func(ev Progress) { restored = ev.FromCheckpoint },
		})
		if err != nil {
			t.Fatal(err)
		}
		if trials, ok := reg.CounterValue("engine_trials_total", nil); !restored || !ok || trials != 0 {
			t.Fatalf("%s: FromCheckpoint=%t with %d trials run, want a restore and none",
				res[0].Point.Key(), restored, trials)
		}
		var rec checkpointRecord
		if err := json.Unmarshal([]byte(c.line), &rec); err != nil {
			t.Fatal(err)
		}
		if res[0].Aggregate != rec.Aggregate {
			t.Fatalf("restored %+v, the line holds %+v", res[0].Aggregate, rec.Aggregate)
		}
	}
}

// TestInvalidChannelIsAnErrorBeforeTheFirstTrial: a Markov matrix whose
// row sums to 1.2 used to be simulated as a perfect channel on the live
// PointSpec path (inefficiency 1.0, no error). Every live entry point
// must refuse it, and the unset channel with it.
func TestInvalidChannelIsAnErrorBeforeTheFirstTrial(t *testing.T) {
	code, err := codes.Spec{Family: "rse", K: 40, Ratio: 1.5, Seed: 1}.New()
	if err != nil {
		t.Fatal(err)
	}
	bad := channel.MarkovChannel(channel.MarkovSpec{
		Transition: [][]float64{{0.9, 0.3}, {0.5, 0.5}},
		LossProb:   []float64{0, 1},
	})
	for name, ch := range map[string]channel.Spec{"row sums to 1.2": bad, "unset": {}} {
		spec := PointSpec{Code: code, Scheduler: sched.TxModel4{}, Channel: ch, Trials: 4, Seed: 1}
		agg, err := RunPoint(context.Background(), spec, 2)
		if err == nil || agg.Trials != 0 {
			t.Errorf("%s: RunPoint = %+v, %v; want an error and no trials", name, agg, err)
		}
		if _, err := RunPointSpecs(context.Background(), []PointSpec{spec}, 2); err == nil {
			t.Errorf("%s: RunPointSpecs accepted it", name)
		}
		plan := Plan{Codes: []string{"rse"}, Ks: []int{40}, Ratios: []float64{1.5}, Schedulers: []string{"tx4"},
			Channels: []channel.Spec{ch}, Trials: 4, Seed: 1}
		if res, err := Run(context.Background(), plan, Options{}); err == nil {
			t.Errorf("%s: Run returned %v and no error", name, res)
		}
	}
}

// TestSweepPlanDedupsAndFolds: kinds that ignore a grid coordinate
// measure each distinct channel once, every cell still gets its
// aggregate, and the cells are the plan's own results.
func TestSweepPlanDedupsAndFolds(t *testing.T) {
	plan := Plan{Codes: []string{"rse"}, Ks: []int{40}, Ratios: []float64{1.5}, Schedulers: []string{"tx4"}, Trials: 6, Seed: 2}
	axis := []float64{0, 0.1, 0.3}
	points := 0
	g, err := SweepPlan(context.Background(), plan, "bernoulli", axis, axis, Options{Progress: func(Progress) { points++ }})
	if err != nil {
		t.Fatal(err)
	}
	if points != len(axis) {
		t.Fatalf("bernoulli sweep ran %d points for %d distinct channels", points, len(axis))
	}
	for i, p := range axis {
		plan.Channels = []channel.Spec{channel.BernoulliChannel(p)}
		want, err := Run(context.Background(), plan, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for j := range axis {
			if g.At(i, j) != want[0].Aggregate {
				t.Fatalf("cell (%d,%d) = %+v, the plan point measures %+v", i, j, g.At(i, j), want[0].Aggregate)
			}
		}
	}
	plan.Ks = []int{40, 80}
	if _, err := SweepPlan(context.Background(), plan, "gilbert", axis, axis, Options{}); err == nil {
		t.Fatal("a two-k plan folded into one grid")
	}
	plan.Ks = []int{40}
	if _, err := SweepPlan(context.Background(), plan, "smoke-signals", axis, axis, Options{}); err == nil {
		t.Fatal("accepted an unknown channel kind")
	}
}
