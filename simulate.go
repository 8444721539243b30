package fecperf

// Simulation and experiment surface: one-point measurements (Simulate),
// declarative plans on the parallel engine (RunPlan), (p, q) grids
// among them, the paper's figures and tables (RunExperiment) and the
// Section-6 recommender. Simulate takes the same unified Config as the
// delivery constructors, so one spec line describes a scenario both as
// a simulation and as a live cast.

import (
	"context"
	"fmt"
	"sort"

	"fecperf/internal/channel"
	"fecperf/internal/core"
	"fecperf/internal/engine"
	"fecperf/internal/experiments"
	"fecperf/internal/recommend"
)

// Simulate runs repeated reception trials of one configuration — codec
// (as the ID-level code), scheduler and channel — and returns the
// paper's aggregate (mean inefficiency ratio, failure count,
// n_received/k):
//
//	agg, err := fecperf.Simulate(fecperf.WithSpec(
//	    "codec=ldgm-staircase(k=1000,ratio=2.5),sched=tx2,channel=gilbert(p=0.01,q=0.79),trials=100,seed=7"))
//
// Defaults: Tx_model_4 scheduling, the no-loss channel, the paper's 100
// trials. The codec spec must carry k. Workers splits trials across
// goroutines; the aggregate is identical for every worker count.
func Simulate(opts ...Option) (Aggregate, error) {
	c, err := NewConfig(opts...)
	if err != nil {
		return Aggregate{}, err
	}
	if c.Codec.Family == "" {
		return Aggregate{}, fmt.Errorf("fecperf: Simulate requires a codec (e.g. WithSpec(%q))", "codec=rse(k=64,ratio=1.5)")
	}
	// The delivery constructors run the same resolved codec, so one spec
	// line is the same code in simulation and on the air.
	code, err := c.ResolvedCodec().New()
	if err != nil {
		return Aggregate{}, err
	}
	scheduler := c.Scheduler
	if scheduler == nil {
		scheduler = TxModel4()
	}
	ch := c.Channel
	if ch.Kind == "" {
		ch = channel.NoLossChannel()
	}
	return engine.RunPoint(context.Background(), engine.PointSpec{
		Code:      code,
		Scheduler: scheduler,
		Channel:   ch,
		Trials:    c.Trials,
		Seed:      c.Seed,
		NSent:     c.NSent,
	}, c.Workers)
}

// RunPlan expands a declarative plan into measurement points and
// executes them on the parallel experiment engine: trials split across
// workers, results identical for any worker count, optional progress
// and JSON-lines checkpointing through opts, cancellation through ctx.
// Results align with the plan's expansion order.
func RunPlan(ctx context.Context, plan Plan, opts PlanOptions) ([]PointResult, error) {
	return engine.Run(ctx, plan, opts)
}

// RunFleet executes one fleet point: one shared transmission order
// fanned out to a population of receivers whose loss channels are drawn
// from the spec's mix, in struct-of-arrays state a few tens of bytes
// per receiver. The code must decode at a per-block threshold (rse,
// rse16, repetition); the mix channels must batch-step (gilbert,
// bernoulli, noloss). Workers ≤ 0 means GOMAXPROCS; the summary is
// byte-identical for every worker count. Fleet points also run inside
// plans via Plan.Fleets.
func RunFleet(ctx context.Context, spec FleetRunSpec, workers int) (*FleetSummary, error) {
	agg, err := engine.RunPoint(ctx, spec, workers)
	return agg.Fleet, err
}

// Channel spec constructors for Plan.Channels.

// GilbertChannelSpec declares a two-state Gilbert channel.
func GilbertChannelSpec(p, q float64) ChannelSpec { return channel.GilbertChannel(p, q) }

// BernoulliChannelSpec declares IID loss at rate p.
func BernoulliChannelSpec(p float64) ChannelSpec { return channel.BernoulliChannel(p) }

// NoLossChannelSpec declares the perfect channel.
func NoLossChannelSpec() ChannelSpec { return channel.NoLossChannel() }

// TraceChannelSpec declares replay of a recorded loss pattern.
func TraceChannelSpec(pattern []bool, noWrap bool) ChannelSpec {
	return channel.TraceChannel(pattern, noWrap)
}

// RunExperiment executes one of the paper's figures or tables by ID
// (e.g. "fig11-tx4", "table2-tx2-sc-2.5") at the scale given by opts.
func RunExperiment(id string, opts ExperimentOptions) (*Report, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(opts)
}

// ExperimentIDs lists every registered figure/table experiment, sorted
// lexically so CLI listings and docs are stable across registration
// order.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range experiments.List() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// BestTuple ranks all (code, tx model, ratio) candidates at the Gilbert
// point (p, q) and returns the winner — Section 6.2.1's procedure.
func BestTuple(p, q float64, k, trials int, seed int64) (Tuple, float64, error) {
	r, err := recommend.Best(p, q, recommend.Config{K: k, Trials: trials, Seed: seed})
	if err != nil {
		return Tuple{}, 0, err
	}
	return r.Tuple, r.Ineff, nil
}

// UniversalTuples returns the paper's recommended schemes for unknown
// channels: (LDGM Triangle; Tx_model_4) and (LDGM Staircase; Tx_model_6).
func UniversalTuples() []Tuple { return recommend.Universal() }

// OptimalNSent sizes the transmission per Section 6's Equation 3.
func OptimalNSent(k int, inefficiency, globalLoss float64, margin, n int) (int, error) {
	return recommend.OptimalNSent(k, inefficiency, globalLoss, margin, n)
}

// GlobalLoss returns the stationary Gilbert loss rate p/(p+q).
func GlobalLoss(p, q float64) float64 { return channel.GlobalLoss(p, q) }

// EstimateGilbert fits (p, q) to a recorded loss trace (true = lost).
func EstimateGilbert(trace []bool) (p, q float64, err error) {
	return channel.EstimateGilbert(trace)
}

// RunTrial simulates one reception of the given schedule through a
// channel, evaluating the schedule lazily. The channel is sampled up to
// 64 transmissions ahead of the receiver, and no ids are drawn once the
// object decodes.
func RunTrial(schedule Schedule, ch Channel, rx Receiver, nsent int) TrialResult {
	return core.RunTrial(schedule, ch, rx, nsent)
}

// NewGilbertChannel returns a stateful Gilbert channel seeded by seed:
// the chain the engine steps, GilbertChannelSpec(p, q).New(seed).
func NewGilbertChannel(p, q float64, seed int64) (Channel, error) {
	if err := channel.ValidateGilbert(p, q); err != nil {
		return nil, err
	}
	return channel.GilbertChannel(p, q).New(uint64(seed)), nil
}

// PaperGrid is the 14-value (p, q) axis used by the paper's sweeps.
func PaperGrid() []float64 {
	return append([]float64(nil), engine.PaperGrid...)
}
