package engine

import (
	"context"
	"runtime"
	"testing"

	"fecperf/internal/channel"
	"fecperf/internal/codes"
	"fecperf/internal/core"
	"fecperf/internal/sched"
)

// benchCode builds the acceptance-scenario code once per benchmark
// binary: LDGM Staircase, k=1000, ratio 2.5 — the ISSUE's reference
// single-point workload.
var benchCode core.Code

func benchSpec(b *testing.B) PointSpec {
	b.Helper()
	if benchCode == nil {
		c, err := codes.Spec{Family: "ldgm-staircase", K: 1000, Ratio: 2.5, Seed: 1}.New()
		if err != nil {
			b.Fatal(err)
		}
		benchCode = c
	}
	return PointSpec{
		Code:      benchCode,
		Scheduler: sched.TxModel4{},
		Channel:   channel.GilbertChannel(0.05, 0.5),
		Trials:    100,
		Seed:      7,
	}
}

func benchmarkPoint(b *testing.B, workers int) {
	spec := benchSpec(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err := RunPoint(context.Background(), spec, workers)
		if err != nil {
			b.Fatal(err)
		}
		if agg.Trials != 100 {
			b.Fatalf("ran %d trials", agg.Trials)
		}
	}
	b.ReportMetric(float64(100*b.N)/b.Elapsed().Seconds(), "trials/s")
}

// BenchmarkPointSequential is the sequential baseline of the
// single-point speedup.
func BenchmarkPointSequential(b *testing.B) { benchmarkPoint(b, 1) }

// BenchmarkPointParallel4 is the same point on 4 workers; the ratio of
// the two ns/op values is the single-point speedup.
func BenchmarkPointParallel4(b *testing.B) { benchmarkPoint(b, 4) }

// BenchmarkPlanThroughput measures whole-plan execution (points/sec) on
// all cores: a 2-code × 2-scheduler × 9-channel grid at small k, the
// regime where cross-point parallelism dominates.
func BenchmarkPlanThroughput(b *testing.B) {
	axis := []float64{0, 0.05, 0.2}
	var chans []channel.Spec
	for _, p := range axis {
		for _, q := range []float64{0.5, 0.8, 1} {
			chans = append(chans, channel.GilbertChannel(p, q))
		}
	}
	plan := Plan{
		Codes:      []string{"ldgm-staircase", "rse"},
		Ks:         []int{200},
		Ratios:     []float64{2.5},
		Schedulers: []string{"tx2", "tx4"},
		Channels:   chans,
		Trials:     20,
		Seed:       3,
	}
	points := plan.NumPoints()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), plan, Options{Workers: runtime.GOMAXPROCS(0)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(points*b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSimGridPlan runs one family's slice of the sim-paper-grid
// bench workload's plan (bench/sim.go: k = 2000, ratios 1.5 and 2.5,
// tx1/tx2/tx4/tx5, a 4×3 Gilbert grid, 20 trials) on one worker, codes
// built beforehand, and reports trials/s. It steps the engine's own trial
// path — the channel masks included — which bench's core.runtrial_us.*
// rows, driving the facade's scalar Gilbert channel, cannot see.
func BenchmarkSimGridPlan(b *testing.B) {
	var chans []channel.Spec
	for _, p := range []float64{0.01, 0.05, 0.1, 0.2} {
		for _, q := range []float64{0.2, 0.5, 0.8} {
			chans = append(chans, channel.GilbertChannel(p, q))
		}
	}
	for _, family := range []string{"rse", "ldgm-staircase", "ldgm-triangle"} {
		b.Run(family, func(b *testing.B) {
			plan := Plan{
				Codes:      []string{family},
				Ks:         []int{2000},
				Ratios:     []float64{1.5, 2.5},
				Schedulers: []string{"tx1", "tx2", "tx4", "tx5"},
				Channels:   chans,
				Trials:     20,
				Seed:       1,
			}
			points, err := plan.Points()
			if err != nil {
				b.Fatal(err)
			}
			specs := make([]PointSpec, len(points))
			cache := map[string]core.Code{}
			for i, pt := range points {
				if specs[i], err = Materialize(pt, cache); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunPointSpecs(context.Background(), specs, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(specs)*plan.Trials*b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// BenchmarkSweep4x4 measures a small (p, q) grid sweep end to end.
func BenchmarkSweep4x4(b *testing.B) {
	plan := Plan{Codes: []string{"ldgm-triangle"}, Ks: []int{500}, Ratios: []float64{2.5}, Schedulers: []string{"tx4"}, Trials: 5, Seed: 1}
	axis := []float64{0, 0.05, 0.2, 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SweepPlan(context.Background(), plan, "gilbert", axis, axis, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
