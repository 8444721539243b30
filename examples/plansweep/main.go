// Plansweep: drive the parallel experiment engine from the public facade.
// One declarative plan crosses two FEC codes with two transmission models
// over four different channel families — Gilbert burst loss, IID loss, a
// recorded loss trace and a perfect channel — and streams results to
// stderr as grid points complete, checkpointing them so an interrupted
// sweep resumes for free. Points complete in whatever order the workers
// finish them; the table on stdout is in plan order, the same bytes on
// every run.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"fecperf"
)

func main() {
	// A "recorded" trace: 30 seconds of bursty loss, here synthesised.
	rng := rand.New(rand.NewSource(3))
	trace := make([]bool, 3000)
	for i := range trace {
		trace[i] = rng.Float64() < 0.08
	}

	plan := fecperf.Plan{
		Codes:      []string{"ldgm-staircase", "rse"},
		Ks:         []int{500},
		Ratios:     []float64{2.5},
		Schedulers: []string{"tx2", "tx4"},
		Channels: []fecperf.ChannelSpec{
			fecperf.GilbertChannelSpec(0.05, 0.5), // bursty: mean burst 2 packets
			fecperf.BernoulliChannelSpec(0.09),    // same loss rate, no memory
			fecperf.TraceChannelSpec(trace, false),
			fecperf.NoLossChannelSpec(),
		},
		Trials: 20,
		Seed:   1,
	}

	ckpt := filepath.Join(os.TempDir(), "plansweep.jsonl")
	results, err := fecperf.RunPlan(context.Background(), plan, fecperf.PlanOptions{
		CheckpointPath: ckpt,
		Progress: func(ev fecperf.PlanProgress) {
			fmt.Fprintf(os.Stderr, "  [%2d/%d] %-14s × %s × %-22s → %s\n",
				ev.Done, ev.Total, ev.Point.Code, ev.Point.Scheduler,
				ev.Point.Channel.Key(), ev.Aggregate.String())
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("code × scheduler × channel, mean inefficiency (\"-\" = a trial failed):")
	for _, r := range results {
		fmt.Printf("%-14s  %s  %-22s  %s\n",
			r.Point.Code, r.Point.Scheduler, r.Point.Channel.Key(), r.Aggregate.String())
	}
	fmt.Printf("\ncheckpoint: %s (rerun this program — every point resumes)\n", ckpt)
	os.Remove(ckpt) // keep the demo repeatable
}
