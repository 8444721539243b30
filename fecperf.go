package fecperf

// The unified facade core: every public constructor in this package —
// streaming delivery (NewCaster/NewCollector), single objects
// (NewObject), simulation (Simulate) and the CLI tools built on them —
// is configured the same way, by a Config parsed from a one-line spec
// string. The spec grammar is the repository-wide one (internal/spec):
// comma-separated key=value pairs whose values may themselves be
// parameterized specs, so a whole send/receive/simulate configuration
// serializes to one line,
//
//	codec=rse(k=64,ratio=1.5),sched=tx4,channel=gilbert(p=0.01,q=0.5),rate=5000
//
// and round-trips through Config.Spec — usable identically from Go
// code, cmd/* flags and engine plans. The only other options carry the
// Go values a line cannot: a pacer, progress callbacks, a metrics
// registry and a tracer.

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"fecperf/internal/channel"
	"fecperf/internal/codes"
	"fecperf/internal/core"
	"fecperf/internal/engine"
	"fecperf/internal/experiments"
	"fecperf/internal/obs"
	"fecperf/internal/recommend"
	"fecperf/internal/sched"
	"fecperf/internal/spec"
	"fecperf/internal/transport"
)

// Core abstractions, aliased so facade users interoperate with every
// subsystem without conversion.
type (
	// Code is an FEC code instance: a layout plus a receiver factory.
	Code = core.Code
	// Receiver is an incremental decoder fed packets in arrival order.
	Receiver = core.Receiver
	// Codec is the payload-carrying half of a code: encode k source
	// symbols to n-k parity, mint incremental payload decoders. All
	// families (rse, rse16, the ldgm variants, no-fec) implement it.
	Codec = core.Codec
	// PayloadDecoder consumes payload packets one at a time and exposes
	// the recovered source symbols. See the buffer-ownership contract on
	// the interface: payloads passed in are borrowed and copied once, to
	// their final slot in the decoder's source slab; slices returned by
	// Source are views into it, live until TakeSources or Close.
	PayloadDecoder = core.PayloadDecoder
	// CodecSpec is the serializable configuration of one codec:
	// family, k, expansion ratio and construction seed. Its Name
	// round-trips through ParseCodecSpec.
	CodecSpec = codes.Spec
	// Delivery is what a cast puts on the air, and the part of a spec
	// line Config and CastSpec share: codec, sched, payload, batch,
	// window, rounds, nsent, seed, object. A zero field selects the
	// default (README, "Delivery keys"). Both embed it, so literals name
	// it: CastSpec{Name: "docs", Delivery: Delivery{BaseObjectID: 7}}.
	Delivery = transport.Delivery
	// Scheduler produces a transmission order for one trial.
	Scheduler = core.Scheduler
	// Schedule is a streaming transmission order: O(1) memory, any
	// position evaluable in O(1) via At, iterable via Cursor.
	Schedule = core.Schedule
	// Channel decides, per transmission, whether a packet is erased.
	Channel = core.Channel
	// ChannelStepper advances a Gilbert chain up to 64 transmissions per
	// call on splitmix64 state and an in-loss bit its caller owns, exactly
	// as the Channel ChannelSpec.New builds from that state. ChannelSpec's
	// Stepper returns it.
	ChannelStepper = channel.Stepper
	// Layout describes the packet-ID structure of an encoded object.
	Layout = core.Layout
	// TrialResult is the outcome of a single simulated reception.
	TrialResult = core.TrialResult
	// Aggregate summarises the repeated trials of one measurement point.
	Aggregate = engine.Aggregate
	// Report is a rendered experiment outcome.
	Report = experiments.Report
	// ExperimentOptions scales an experiment run.
	ExperimentOptions = experiments.Options
	// Tuple is a (code, transmission model, expansion ratio) candidate.
	Tuple = recommend.Tuple
	// Plan declares a cartesian scenario space for the experiment engine.
	Plan = engine.Plan
	// Point is one serializable work unit of an expanded plan.
	Point = engine.Point
	// PointResult pairs a point with its measured aggregate.
	PointResult = engine.PointResult
	// ChannelSpec is the one description of a loss channel: the value of
	// the "channel" spec key (ChannelByName parses it, String renders
	// it), the JSON in plans and checkpoints, and the builder of the
	// running chain (New) and its batched stepper (Stepper). The zero
	// value means "unset".
	ChannelSpec = channel.Spec
	// FleetSpec declares a fleet point — a receiver population and its
	// channel mix — for Plan.Fleets or RunFleet.
	FleetSpec = engine.FleetSpec
	// MixComponent is one receiver class of a fleet: a channel and its
	// relative share of the population.
	MixComponent = engine.MixComponent
	// FleetRunSpec is a materialised fleet work unit for RunFleet.
	FleetRunSpec = engine.PointSpec
	// FleetSummary is a fleet point's result: completion-time and
	// inefficiency percentile curves, overall and per mix component.
	FleetSummary = engine.FleetSummary
	// FleetGroupSummary is one mix component's completion distribution.
	FleetGroupSummary = engine.FleetGroupSummary
	// FleetPercentiles are nearest-rank percentiles over a fleet
	// population (-1 = the fleet never reached that completion fraction).
	FleetPercentiles = engine.FleetPercentiles
	// PlanOptions tunes a RunPlan call: workers, progress callback,
	// checkpoint path and metrics registry.
	PlanOptions = engine.Options
	// PlanProgress describes one completed point of a running plan.
	PlanProgress = engine.Progress
)

// Config is the one configuration every top-level constructor consumes.
// Zero fields mean "the constructor's default". Every serializable
// field is one spec key: parse it from a line (ParseSpec, or WithSpec
// in an option list, where later lines override earlier keys) and
// serialize it back with Spec. The Go-only handles — Pacer, the
// progress callbacks, Metrics and Tracer — have one option each
// (WithPacer, WithCastProgress, WithCollectProgress, WithMetrics,
// WithTracer).
type Config struct {
	// Delivery holds the nine delivery keys — codec, sched, payload,
	// batch, window, rounds, nsent, seed, object — promoted as Codec,
	// Scheduler, PayloadSize, BatchSize, Window, Rounds, NSent, Seed and
	// BaseObjectID. feccastd's CastSpec embeds the same type, so a line
	// means the same delivery under both.
	Delivery
	// Channel is the loss process — the simulated channel in Simulate,
	// the loopback impairment in live runs (key "channel", e.g.
	// channel=gilbert(p=0.01,q=0.5)). An empty Kind means unset.
	Channel ChannelSpec
	// Rate limits transmission in packets per second (key "rate", finite,
	// 0 = unpaced); Burst is the token-bucket depth (key "burst").
	Rate  float64
	Burst int
	// Trials is the reception count for Simulate (key "trials").
	Trials int
	// Workers bounds Simulate's parallelism (key "workers", 0 =
	// GOMAXPROCS); the aggregate is identical for every worker count.
	Workers int
	// MaxPending bounds a Collector's out-of-order chunk buffer (key
	// "pending"). None of these keys may be negative.
	MaxPending int
	// OnCastProgress and OnCollectProgress observe streaming transfers.
	// Callbacks are Go-only: they do not serialize into Spec.
	OnCastProgress    func(CastProgress)
	OnCollectProgress func(CollectProgress)
	// Metrics registers constructed components' counters on a registry
	// and Tracer records their chunk-lifecycle events. Both are Go-only
	// handles (WithMetrics / WithTracer): they do not serialize into
	// Spec. MetricsAddr (key "metrics", e.g. metrics=:9090) is the
	// serializable request for an exposition endpoint — the cmd/* tools
	// consume it; constructors never bind sockets themselves.
	Metrics     *obs.Registry
	Tracer      *obs.Tracer
	MetricsAddr string
	// Pacer substitutes a share of a SharedPacer (WithPacer) for the
	// one-share pacer a caster or broadcaster would build from
	// Rate/Burst, which are ignored when it is non-nil. Go-only: it
	// does not serialize into Spec.
	Pacer *PacerShare
}

// Option mutates a Config; every top-level constructor accepts a list.
type Option func(*Config) error

// WithSpec applies a whole one-line configuration spec. Keys present in
// the line overwrite the corresponding Config fields; everything else
// is left as previously set, so several lines compose in argument
// order, later keys overriding earlier ones.
func WithSpec(line string) Option {
	return func(c *Config) error { return c.parse(line) }
}

// WithPacer substitutes a share of a NewSharedPacer for the one-share
// pacer Rate/Burst would configure; both are ignored when the share is
// non-nil. Several casters or broadcasters handed shares of one
// SharedPacer split a single global rate instead of pacing
// independently.
func WithPacer(p *PacerShare) Option {
	return func(c *Config) error {
		c.Pacer = p
		return nil
	}
}

// WithCastProgress observes a running cast.
func WithCastProgress(fn func(CastProgress)) Option {
	return func(c *Config) error {
		c.OnCastProgress = fn
		return nil
	}
}

// WithCollectProgress observes a running collect.
func WithCollectProgress(fn func(CollectProgress)) Option {
	return func(c *Config) error {
		c.OnCollectProgress = fn
		return nil
	}
}

// NewConfig assembles a Config from options, applied in order.
func NewConfig(opts ...Option) (Config, error) {
	var c Config
	for _, o := range opts {
		if err := o(&c); err != nil {
			return Config{}, err
		}
	}
	return c, nil
}

// configKeys are the spec keys ParseSpec accepts, in the canonical render
// order of Config.Spec: the delivery keys, then Config's own.
var configKeys = append(slices.Clone(transport.DeliveryKeys),
	"channel", "rate", "burst", "trials", "workers", "pending", "metrics")

// ParseSpec parses a one-line configuration spec — comma-separated
// key=value pairs, values themselves specs — into a Config:
//
//	codec=rse(k=64,ratio=1.5),sched=tx4,channel=gilbert(p=0.01,q=0.5),rate=5000
//
// Unknown keys and malformed values are errors. The empty line is the
// zero Config. ParseSpec(c.Spec()) reproduces c for every Config whose
// scheduler name round-trips and whose channel the grammar can express
// (every ChannelSpec but a recorded trace or an explicit Markov matrix).
func ParseSpec(line string) (Config, error) {
	var c Config
	if err := c.parse(line); err != nil {
		return Config{}, err
	}
	return c, nil
}

// parse sets the keys present in line on c; the rest keep their value.
func (c *Config) parse(line string) error {
	trimmed := strings.TrimSpace(line)
	if trimmed == "" {
		return nil
	}
	_, params, err := spec.Split("cfg(" + trimmed + ")")
	if err != nil {
		return fmt.Errorf("fecperf: spec %q: %w", line, err)
	}
	if bad := params.Unknown(configKeys...); bad != nil {
		return fmt.Errorf("fecperf: spec %q has unknown keys %v (have %v)", line, bad, configKeys)
	}
	fail := func(err error) error { return fmt.Errorf("fecperf: spec %q: %w", line, err) }
	if err := c.Delivery.Parse(params); err != nil {
		return fail(err)
	}
	if v, ok := params["channel"]; ok {
		if c.Channel, err = channel.Parse(v); err != nil {
			return fail(err)
		}
	}
	if v, ok, err := params.Float("rate"); err != nil {
		return fail(err)
	} else if ok {
		c.Rate = v
	}
	for _, f := range c.intKeys() {
		v, ok, err := params.Int(f.key)
		if err != nil {
			return fail(err)
		}
		if ok {
			*f.v = v
		}
	}
	if v, ok := params["metrics"]; ok {
		c.MetricsAddr = v
	}
	for _, f := range c.intKeys() {
		if *f.v < 0 {
			return fail(fmt.Errorf("%s must not be negative, got %d", f.key, *f.v))
		}
	}
	if err := transport.ValidatePacing(c.Rate, c.Burst); err != nil {
		return fail(err)
	}
	return nil
}

// configInt is one of Config's own plain integer keys.
type configInt struct {
	key string
	v   *int
}

// intKeys lists them in render order.
func (c *Config) intKeys() []configInt {
	return []configInt{
		{"burst", &c.Burst}, {"trials", &c.Trials}, {"workers", &c.Workers}, {"pending", &c.MaxPending},
	}
}

// Spec renders the Config as the canonical one-line spec: only non-zero
// fields appear — the delivery keys first, then channel, rate, burst,
// trials, workers, pending, metrics. Go-only handles do not serialize.
func (c Config) Spec() string {
	fields := c.Delivery.Fields()
	add := func(k, v string) { fields = append(fields, spec.Field{Key: k, Value: v}) }
	if c.Channel.Kind != "" {
		add("channel", c.Channel.String())
	}
	if c.Rate != 0 {
		add("rate", strconv.FormatFloat(c.Rate, 'g', -1, 64))
	}
	for _, f := range c.intKeys() {
		if *f.v != 0 {
			add(f.key, strconv.Itoa(*f.v))
		}
	}
	if c.MetricsAddr != "" {
		add("metrics", c.MetricsAddr)
	}
	parts := make([]string, len(fields))
	for i, f := range fields {
		parts[i] = f.Key + "=" + f.Value
	}
	return strings.Join(parts, ",")
}

// --- Codecs and codes ---

// CodeNames lists the four code families the paper studies: "rse",
// "ldgm", "ldgm-staircase", "ldgm-triangle".
var CodeNames = codes.Names

// NewCode builds CodecSpec{Family: name, K: k, Ratio: ratio, Seed:
// seed}.New(): any of CodecNames (no-fec at ratio 1) for k source
// packets. The seed fixes the pseudo-random LDGM construction (it is
// ignored by the other families).
func NewCode(name string, k int, ratio float64, seed int64) (Code, error) {
	return codes.Spec{Family: name, K: k, Ratio: ratio, Seed: seed}.New()
}

// CodecNames lists the codec families of the codec spec grammar that
// CodecByName and ParseCodecSpec accept: "rse", "rse16", "ldgm",
// "ldgm-staircase", "ldgm-triangle", "no-fec".
var CodecNames = codes.CodecNames

// CodecByName resolves a fully parameterized codec spec, e.g.
// "rse(k=64,ratio=1.5,seed=7)", into a payload-carrying codec: the
// encode / incremental-decode surface the delivery session and
// transport run on. Parity buffers returned by Encode are the
// caller's; the garbage collector takes them. It is the codec-side twin
// of SchedulerByName and ChannelByName.
func CodecByName(codecSpec string) (Codec, error) { return codes.ByName(codecSpec) }

// ParseCodecSpec parses a codec spec string into its structured form
// without building the codec; CodecSpec.Name renders it back.
func ParseCodecSpec(codecSpec string) (CodecSpec, error) { return codes.ParseSpec(codecSpec) }

// --- Schedulers ---

// SchedulerByName resolves a transmission-model name: the paper's six
// models "tx1".."tx6", optionally parameterized — "tx6(frac=0.3)",
// "rx1(src=12)", "repeat(x=3)", "carousel(inner=tx2,rounds=4)".
// Scheduler names round-trip: ByName(s.Name()) reproduces s.
func SchedulerByName(name string) (Scheduler, error) { return sched.ByName(name) }

// TxModel2 is SchedulerByName("tx2").
func TxModel2() Scheduler { return sched.TxModel2{} }

// TxModel4 is SchedulerByName("tx4").
func TxModel4() Scheduler { return sched.TxModel4{} }

// ChannelByName parses a channel spec: "gilbert(p=0.01,q=0.5)",
// "bernoulli(p=0.05)", "markov(p=0.01,q=0.5)", "noloss". The result's
// String parses back to the same value.
func ChannelByName(channelSpec string) (ChannelSpec, error) {
	return channel.Parse(channelSpec)
}

// --- Transport endpoints ---

// TransportConn is a datagram endpoint (UDP or in-memory loopback).
type TransportConn = transport.Conn

// ErrTransportClosed is returned by transport endpoints after Close.
var ErrTransportClosed = transport.ErrClosed

// Dial returns a sending UDP endpoint for addr ("host:port"; multicast
// group addresses work without joining).
func Dial(addr string) (TransportConn, error) { return transport.DialUDP(addr) }

// Listen returns a receiving UDP endpoint bound to addr, joining the
// group when addr is multicast.
func Listen(addr string) (TransportConn, error) { return transport.ListenUDP(addr) }

// Loopback is the in-memory broadcast medium for live-impairment runs
// without sockets.
type Loopback = transport.Loopback

// NewLoopback returns an empty in-memory broadcast medium. Attach
// receivers (each optionally behind a Channel impairment), then create
// sender endpoints with its Sender method.
func NewLoopback() *Loopback { return transport.NewLoopback() }
