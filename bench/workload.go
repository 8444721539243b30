package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// workload is one named set of inputs. prepare generates them from the
// seed; rep runs the program over them once, end to end, and verifies
// what came out; layers measures the workload's layers one by one by
// replaying what the last traced repetition recorded.
type workload interface {
	name() string
	why() string
	prepare(seed int64, scale int) error
	rep(ctx context.Context, tr *tracer) repResult
	layers(last repResult) (map[string]float64, error)
}

// repResult is one repetition: operations attempted and verified, the
// end-to-end metric values, and what the harness saw at each layer
// boundary from outside.
type repResult struct {
	attempted, verified int
	note                string // why operations failed, if any did
	e2e                 map[string]float64
	layer               map[string]float64
	latenciesMS         []float64
	arrivals            *arrivalLog // datagram arrival order a traced cast repetition's link recorded
}

// options is one benchmark invocation.
type options struct {
	seed    int64
	seconds float64       // measure for at least this long ...
	reps    int           // ... or, when > 0, exactly this many repetitions
	trace   bool          // separate traced run: per-layer numbers, spans, overhead
	scale   int           // divide every input size by this (1 = as documented)
	timeout time.Duration // per repetition; a repetition that exceeds it has failed operations
}

// minReps is the fewest timed repetitions a median is taken over.
const minReps = 3

// workloadResult is everything measured for one workload in one run.
type workloadResult struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Reps      int                `json:"reps"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]summary `json:"per_layer,omitempty"`
	// LatencySamples is how many chunk latencies the p50 and p99 rest on.
	LatencySamples int `json:"latency_samples"`
}

func (r workloadResult) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// runWorkload prepares w, runs the discarded warm-up repetition (both
// charged to setup_s) and then timed repetitions until opt.seconds have
// been measured. In a traced run every second repetition is traced: the
// untraced ones give the reference the tracing overhead is taken
// against, the traced ones the per-layer numbers (medians).
func runWorkload(w workload, opt options, tr *tracer) (workloadResult, error) {
	res := workloadResult{Name: w.name(), Why: w.why(), EndToEnd: map[string]summary{}}
	setupStart := time.Now()
	if err := w.prepare(opt.seed, opt.scale); err != nil {
		return res, fmt.Errorf("%s: %w", w.name(), err)
	}
	oneRep := func(t *tracer) repResult {
		runtime.GC() // every repetition starts from the same heap
		ctx, cancel := context.WithTimeout(context.Background(), opt.timeout)
		defer cancel()
		return w.rep(ctx, t)
	}
	warm := oneRep(nil)
	setup := time.Since(setupStart).Seconds()
	note := func(r repResult, what string) {
		res.Attempted += r.attempted
		res.Failed += r.attempted - r.verified
		if r.note != "" {
			res.Notes = append(res.Notes, what+": "+r.note)
		}
	}
	note(warm, "warm-up")

	e2e := map[string][]float64{}
	layer := map[string][]float64{}
	var plain, traced []float64 // goodput of untraced and traced repetitions
	var latencies []float64
	var last repResult
	least := minReps
	if opt.trace {
		least = 2 * minReps // minReps of each kind
	}
	start := time.Now()
	for i := 0; ; i++ {
		if opt.reps > 0 {
			if i >= opt.reps {
				break
			}
		} else if i >= least && time.Since(start).Seconds() >= opt.seconds {
			break
		}
		t := tr
		if !opt.trace || i%2 == 0 {
			t = nil
		}
		span := tr.begin("rep", w.name(), i)
		r := oneRep(t)
		span.end()
		note(r, fmt.Sprintf("rep %d", i))
		res.Reps++
		if t != nil {
			traced = append(traced, r.e2e["goodput_mb_s"])
			for k, v := range r.layer {
				layer[k] = append(layer[k], v)
			}
			last = r
			continue
		}
		plain = append(plain, r.e2e["goodput_mb_s"])
		for k, v := range r.e2e {
			e2e[k] = append(e2e[k], v)
		}
		latencies = append(latencies, r.latenciesMS...)
	}

	for _, d := range endToEnd {
		res.EndToEnd[d.Name] = summarizeTimed(d, e2e[d.Name])
	}
	res.EndToEnd["setup_s"] = summarize("s", []float64{setup})
	// Delivery is counted over every repetition, the warm-up too: a
	// failure must not vanish into a statistic that favours good runs.
	delivered := res.EndToEnd["delivered_ratio"]
	delivered.Value = ratio(float64(res.Attempted-res.Failed), float64(res.Attempted))
	res.EndToEnd["delivered_ratio"] = delivered
	res.LatencySamples = len(latencies)
	if !opt.trace {
		return res, nil
	}

	res.PerLayer = map[string]summary{}
	vals := map[string]float64{}
	for k, v := range layer {
		vals[k] = median(v)
	}
	span := tr.begin("replay", w.name(), 0)
	replayed, err := w.layers(last)
	span.end()
	if err != nil {
		res.Notes = append(res.Notes, "replay incomplete: "+err.Error())
	}
	for k, v := range replayed {
		vals[k] = v
	}
	if len(latencies) > 0 {
		vals["transport.collector.chunk_latency_p99_ms"] = percentile(latencies, 99)
	}
	goodput := endToEndDef("goodput_mb_s")
	if p, t := summarizeTimed(goodput, plain).Value, summarizeTimed(goodput, traced).Value; p > 0 {
		vals["bench.trace_overhead_pct"] = (p - t) / p * 100
	}
	deriveBudget(vals)
	for _, d := range perLayer {
		if all, ok := layer[d.Name]; ok {
			res.PerLayer[d.Name] = summarize(d.Unit, all)
			continue
		}
		res.PerLayer[d.Name] = summarize(d.Unit, []float64{vals[d.Name]})
	}
	return res, nil
}
