package engine

import (
	"context"
	"runtime"
	"testing"

	"fecperf/internal/channel"
	"fecperf/internal/codes"
	"fecperf/internal/sched"
)

// BenchmarkFleet measures the fleet engine at a reference point —
// rse k=256 ratio 1.5 under tx2 with a mixed Gilbert/Bernoulli fleet —
// reporting aggregate receiver-symbol events/s (the ≥10⁷ target),
// steady-state bytes per receiver and amortised allocations per
// receiver. `go run ./bench -workload sim-paper-grid` reports the same
// quantities end to end (events_per_s, engine.fleet.state_bytes_per_receiver).
func BenchmarkFleet(b *testing.B) {
	const receivers = 100_000
	code, err := codes.Spec{Family: "rse", K: 256, Ratio: 1.5, Seed: 7}.New()
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.ByName("tx2")
	if err != nil {
		b.Fatal(err)
	}
	spec := PointSpec{
		Code:      code,
		Scheduler: s,
		Fleet: FleetSpec{
			Receivers: receivers,
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
	var events int64
	var last *FleetSummary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := fleetSummary(context.Background(), spec, 0)
		if err != nil {
			b.Fatal(err)
		}
		events += sum.Events
		last = sum
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)

	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(last.BytesPerReceiver, "state-B/rx")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/receivers, "allocs/rx")
	b.ReportMetric(last.Completion.P99, "p99-symbols")
}
