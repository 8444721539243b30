// Package engine is the parallel experiment engine behind every sweep in
// the repository. A declarative Plan expands into serializable Point work
// units; a worker pool executes them with trial-level parallelism — the
// trials of one point are split into fixed-size shards, run on whatever
// worker is free, and merged in shard order — so results are identical
// under any worker count. The engine supports context cancellation,
// progress callbacks, and JSON-lines checkpointing so interrupted
// sweeps resume without recomputing finished points.
//
//	plan (axes) → points (serializable) → shards (trials) → workers → merge
//
// A (p, q) grid is a plan too: SweepPlan fills the plan's channel axis
// with the grid and folds the results back into a Grid. Every point's
// seed derives from the plan seed and the point's configuration key,
// and per-trial randomness from splitmix64 hashing (core.DeriveSeed),
// not arithmetic seed offsets, so no two trials or grid cells share
// correlated rand streams.
package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"fecperf/internal/channel"
	"fecperf/internal/codes"
	"fecperf/internal/core"
	"fecperf/internal/obs"
	"fecperf/internal/sched"
)

// shardSize is the number of trials per work unit. Small enough that a
// default 100-trial point fans out across many workers, large enough
// that scheduling overhead stays negligible next to a decode.
const shardSize = 8

// PointSpec is a materialised work unit: live code and scheduler rather
// than declarative names, plus either the channel every trial builds a
// fresh chain from or the fleet that watches one shared transmission.
// One-point callers (Simulate, RunFleet, the figure and recommender
// loops) build these directly; plans materialise Points into them
// (Materialize).
type PointSpec struct {
	Code      core.Code
	Scheduler core.Scheduler
	Channel   channel.Spec
	// Fleet, when non-zero, makes this a fleet point: Channel and Trials
	// are unused, Code must implement core.BlockMDS (fleet receivers are
	// per-block countdown counters, valid only for threshold-decoding
	// codes), and the aggregate carries the fleet's summary.
	Fleet FleetSpec
	// Trials is the number of independent receptions; 0 means 100.
	Trials int
	// Seed is the point seed; trial t draws from
	// core.DeriveSeed(Seed, t). A fleet derives its shared schedule draw
	// and every receiver's channel chain from it.
	Seed int64
	// NSent truncates every schedule when positive.
	NSent int
}

func (s PointSpec) isFleet() bool { return s.Fleet.Receivers != 0 || len(s.Fleet.Mix) > 0 }

// validate reports what would otherwise fail inside a worker: an invalid
// or unset channel, or a fleet the fleet engine cannot run.
func (s PointSpec) validate() error {
	if !s.isFleet() {
		return s.Channel.Validate()
	}
	if mds, ok := s.Code.(core.BlockMDS); !ok || !mds.BlockMDS() {
		return fmt.Errorf("engine: fleet mode needs a block-MDS code; %s does not decode at a per-block threshold",
			s.Code.Name())
	}
	return s.Fleet.Validate()
}

func (s PointSpec) trials() int {
	if s.Trials == 0 {
		return 100
	}
	return s.Trials
}

// PointResult pairs a point with its aggregate.
type PointResult struct {
	Point     Point     `json:"point"`
	Aggregate Aggregate `json:"aggregate"`
}

// Progress describes one completed point.
type Progress struct {
	// Done counts completed points (including resumed ones); Total is
	// the plan size.
	Done, Total int
	Point       Point
	Aggregate   Aggregate
	// FromCheckpoint marks points restored from the checkpoint file
	// rather than recomputed.
	FromCheckpoint bool
}

// Options tunes an engine run.
type Options struct {
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is called after every completed point.
	// Calls are serialised but may come from worker goroutines, and
	// arrive in completion order, not plan order.
	Progress func(Progress)
	// CheckpointPath, when non-empty, names a JSON-lines file: completed
	// points are appended as they finish, and points already recorded
	// there (matched on configuration key and seed) are restored instead
	// of recomputed.
	CheckpointPath string
	// Metrics, when set, exposes the run's progress counters on the
	// registry (engine_* series: trials, shards, points, checkpoint
	// writes and restores). Runs sharing a registry share the series,
	// so the counters are cumulative across runs.
	Metrics *obs.Registry
}

// engineMetrics is the engine's counter set; the zero value (all nil
// instruments) is fully inert, so uninstrumented runs pay one branch
// per increment.
type engineMetrics struct {
	trials     *obs.Counter
	shards     *obs.Counter
	points     *obs.Counter
	ckptWrites *obs.Counter
	restored   *obs.Counter
	fleet      fleetMetrics
}

func newEngineMetrics(r *obs.Registry) engineMetrics {
	if r == nil {
		return engineMetrics{}
	}
	return engineMetrics{
		trials:     r.Counter("engine_trials_total", "Simulation trials completed.", nil),
		shards:     r.Counter("engine_shards_total", "Trial shards completed by the worker pool.", nil),
		points:     r.Counter("engine_points_total", "Plan points delivered (computed or restored).", nil),
		ckptWrites: r.Counter("engine_checkpoint_writes_total", "Point results appended to the checkpoint file.", nil),
		restored:   r.Counter("engine_points_restored_total", "Points restored from the checkpoint instead of recomputed.", nil),
		fleet:      newFleetMetrics(r),
	}
}

// worker is one pool goroutine's trial state, kept across the shards it
// runs: one core.Trial, one splitmix64-backed rand.Rand, and the reset
// receiver of the last code it ran. The queue hands each worker its
// shards code by code (Plan.Points expands codes outermost, and points
// of one code share its Code), so one slot builds a code's receiver once
// per worker, and a worker holds one receiver at a time.
type worker struct {
	trial core.Trial
	src   core.SplitMixSource
	rng   *rand.Rand
	code  core.Code
	rx    core.Receiver
}

func newWorker() *worker {
	w := &worker{}
	w.rng = rand.New(&w.src)
	return w
}

// receiver returns a receiver of code in its NewReceiver state: the
// worker's own, reset, when it is code's and code's receivers are
// core.Resetters, and a new one otherwise (the ML receiver is built per
// trial).
func (w *worker) receiver(code core.Code) core.Receiver {
	if w.rx != nil && w.code == code {
		w.rx.(core.Resetter).Reset()
		return w.rx
	}
	rx := code.NewReceiver()
	if _, ok := rx.(core.Resetter); ok {
		w.code, w.rx = code, rx
	}
	return rx
}

// runShard executes trials [lo, hi) of a point and returns their partial
// aggregate, stopping early (with a short count) when ctx is cancelled.
// The worker's rng is reseeded, one channel chain and the worker's
// receiver for the code are reset per trial, and schedules are consumed
// lazily, so a trial costs its decoding work and allocates nothing.
func (w *worker) runShard(ctx context.Context, spec PointSpec, lo, hi int) (Aggregate, bool) {
	layout := spec.Code.Layout()
	k := float64(layout.K)
	var agg Aggregate
	nextChannel := trialChannels(spec.Channel, &w.src)
	for t := lo; t < hi; t++ {
		select {
		case <-ctx.Done():
			return agg, false
		default:
		}
		w.rng.Seed(core.DeriveSeed(spec.Seed, uint64(t)))
		schedule := spec.Scheduler.Schedule(layout, w.rng)
		res := w.trial.Run(schedule, nextChannel(), w.receiver(spec.Code), spec.NSent)
		agg.Trials++
		agg.ReceivedOverK.Add(float64(res.NReceived) / k)
		if res.Decoded {
			agg.Ineff.Add(res.Inefficiency(layout.K))
		} else {
			agg.Failures++
		}
	}
	return agg, true
}

// trialChannels returns a shard's channel maker: called right after a
// trial's schedule draw, it returns the chain cs.New(src.State()) would
// build — src's stream goes on there, the scheduler having drawn all of
// its randomness — invalidating the previous one. The kind is resolved
// once per shard: a batch-steppable kind restarts one Chain, markov
// resets and reseeds one chain, a trace gets a fresh replay per trial.
func trialChannels(cs channel.Spec, src *core.SplitMixSource) func() core.Channel {
	if st, ok := cs.Stepper(); ok {
		chain := new(channel.Chain)
		return func() core.Channel {
			*chain = st.Chain(src.State())
			return chain
		}
	}
	if m, ok := cs.New(0).(*channel.Markov); ok {
		return func() core.Channel {
			m.Reset(src.State())
			return m
		}
	}
	return func() core.Channel { return cs.New(0) }
}

// RunPointSpecs executes every spec with trial-level parallelism and
// returns aggregates aligned with the input. All shards of all scalar
// points feed one worker pool, so a single expensive point still
// saturates every worker; fleet points run first, one at a time, each
// parallel across its receiver shards. Results are deterministic in the
// specs' seeds whatever the worker count: shard boundaries are fixed and
// partial aggregates merge in shard order. On cancellation the returned
// error is ctx.Err() and unfinished points hold zero-valued aggregates.
// An invalid or unset channel, or an invalid fleet, is an error before
// the first trial, with every aggregate zero-valued. A spec without a
// code or scheduler is a caller bug and panics here, on the caller's
// goroutine, rather than inside a worker.
func RunPointSpecs(ctx context.Context, specs []PointSpec, workers int) ([]Aggregate, error) {
	out := make([]Aggregate, len(specs))
	for _, s := range specs {
		if s.Code == nil || s.Scheduler == nil {
			panic("engine: PointSpec requires Code and Scheduler")
		}
		if err := s.validate(); err != nil {
			return out, err
		}
	}
	err := runSpecs(ctx, specs, workers, engineMetrics{}, func(i int, agg Aggregate) {
		out[i] = agg
	})
	return out, err
}

// RunPoint executes one materialised point. Workers ≤ 0 means
// GOMAXPROCS; the aggregate is identical for every worker count.
func RunPoint(ctx context.Context, spec PointSpec, workers int) (Aggregate, error) {
	aggs, err := RunPointSpecs(ctx, []PointSpec{spec}, workers)
	return aggs[0], err
}

// runSpecs runs validated specs through drainShards. Fleet points go
// first and one at a time, each drained across its receiver shards:
// fleet state is tens of MB per point and must not exist for every
// pending point at once. Then the trials of every scalar point are cut
// into shards and drained together. Each worker keeps its trial state
// across the shards it takes, whatever their point: one core.Trial, one
// rng, and the receiver of the code it last ran, reset per trial — so a
// worker builds a code's receiver once, not once per shard. done(i, agg)
// is called exactly once per point that completes — from any worker
// goroutine, one call at a time per point but concurrently across points.
func runSpecs(ctx context.Context, specs []PointSpec, workers int, m engineMetrics, done func(int, Aggregate)) error {
	if len(specs) == 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type task struct{ point, shard int }
	var tasks []task
	parts := make([][]Aggregate, len(specs))
	remaining := make([]int, len(specs))
	for i, spec := range specs {
		if spec.isFleet() {
			summary, err := runFleet(ctx, spec, workers, m.fleet)
			if err != nil {
				return err // cancelled: the remaining points stay zero-valued
			}
			done(i, fleetAggregate(summary))
			continue
		}
		// A zero-trial point gets one empty shard, so done() still fires.
		n := max((spec.trials()+shardSize-1)/shardSize, 1)
		parts[i] = make([]Aggregate, n)
		remaining[i] = n
		for s := range n {
			tasks = append(tasks, task{point: i, shard: s})
		}
	}

	var mu sync.Mutex // guards remaining and the done callback
	drainShards(ctx, workers, len(tasks), func(w *worker, j int) {
		tk := tasks[j]
		spec := specs[tk.point]
		lo := tk.shard * shardSize
		hi := min(lo+shardSize, spec.trials())
		agg, ok := w.runShard(ctx, spec, lo, hi)
		if !ok {
			return // cancelled mid-shard: point never completes
		}
		m.shards.Inc()
		m.trials.Add(uint64(agg.Trials))
		parts[tk.point][tk.shard] = agg
		mu.Lock()
		remaining[tk.point]--
		if remaining[tk.point] == 0 {
			var merged Aggregate
			for _, part := range parts[tk.point] {
				merged.Merge(part)
			}
			done(tk.point, merged)
		}
		mu.Unlock()
	})
	return ctx.Err()
}

// drainShards is the engine's one worker pool: it hands shards 0..n-1
// to at most workers goroutines, each keeping one worker across the
// shards it takes, and returns once every goroutine has. It stops
// handing out shards when ctx is done; a shard already running watches
// ctx itself.
func drainShards(ctx context.Context, workers, n int, shard func(w *worker, i int)) {
	var wg sync.WaitGroup
	queue := make(chan int)
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newWorker()
			for i := range queue {
				shard(w, i)
			}
		}()
	}
feed:
	for i := range n {
		select {
		case queue <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(queue)
	wg.Wait()
}

// Run expands the plan and executes it; see RunPoints for semantics.
func Run(ctx context.Context, plan Plan, opts Options) ([]PointResult, error) {
	points, err := plan.Points()
	if err != nil {
		return nil, err
	}
	return RunPoints(ctx, points, opts)
}

// RunPoints executes an explicit point list (normally a plan expansion,
// possibly filtered). Results are returned aligned with the input, and
// also reported through opts.Progress in completion order. With a
// checkpoint path configured, previously completed points are restored
// instead of recomputed and new completions are appended; on
// cancellation (err == ctx.Err()) the checkpoint holds every point
// finished so far, so the same call resumes the run later.
func RunPoints(ctx context.Context, points []Point, opts Options) (res []PointResult, retErr error) {
	results := make([]PointResult, len(points))
	for i, pt := range points {
		results[i].Point = pt
	}

	var ckpt *checkpoint
	if opts.CheckpointPath != "" {
		var err error
		if ckpt, err = openCheckpoint(opts.CheckpointPath); err != nil {
			return nil, err
		}
		// A failed checkpoint write must fail the run: callers rely on
		// the file holding every reported-complete point.
		defer func() {
			if err := ckpt.close(); err != nil && retErr == nil {
				retErr = err
			}
		}()
	}

	m := newEngineMetrics(opts.Metrics)
	total := len(points)
	completed := 0
	deliver := func(i int, agg Aggregate, resumed bool) {
		results[i].Aggregate = agg
		completed++
		m.points.Inc()
		if resumed {
			m.restored.Inc()
		}
		if !resumed && ckpt != nil {
			ckpt.append(points[i], agg)
			m.ckptWrites.Inc()
		}
		if opts.Progress != nil {
			opts.Progress(Progress{
				Done: completed, Total: total,
				Point: points[i], Aggregate: agg,
				FromCheckpoint: resumed,
			})
		}
	}

	// Restore checkpointed points, then materialise (which validates)
	// and run the rest.
	var (
		pending []PointSpec
		indices []int
	)
	codeCache := map[string]core.Code{}
	for i, pt := range points {
		if ckpt != nil {
			if agg, ok := ckpt.lookup(pt); ok {
				deliver(i, agg, true)
				continue
			}
		}
		spec, err := Materialize(pt, codeCache)
		if err != nil {
			return nil, err
		}
		pending = append(pending, spec)
		indices = append(indices, i)
	}

	var mu sync.Mutex // serialises deliver across worker goroutines
	retErr = runSpecs(ctx, pending, opts.Workers, m, func(j int, agg Aggregate) {
		mu.Lock()
		deliver(indices[j], agg, false)
		mu.Unlock()
	})
	return results, retErr
}

// Materialize builds the live, validated work unit for a point, sharing
// code constructions (the expensive part: LDGM matrix building) across
// points with the same code spec through codeCache.
func Materialize(pt Point, codeCache map[string]core.Code) (PointSpec, error) {
	codeKey := pt.codeKey()
	code, ok := codeCache[codeKey]
	if !ok {
		var err error
		cs := codes.Spec{Family: pt.Code, K: pt.K, Ratio: pt.Ratio, Seed: pt.CodeSeed}
		if code, err = cs.New(); err != nil {
			return PointSpec{}, err
		}
		codeCache[codeKey] = code
	}
	s, err := sched.ByName(pt.Scheduler)
	if err != nil {
		return PointSpec{}, err
	}
	spec := PointSpec{
		Code:      code,
		Scheduler: s,
		Channel:   pt.Channel,
		Trials:    pt.Trials,
		Seed:      pt.Seed,
		NSent:     pt.NSent,
	}
	if pt.Fleet != nil {
		spec.Fleet = *pt.Fleet
	}
	return spec, spec.validate()
}

func (pt Point) codeKey() string {
	return fmt.Sprintf("%s|%d|%g|%d", pt.Code, pt.K, pt.Ratio, pt.CodeSeed)
}
