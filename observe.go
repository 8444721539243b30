package fecperf

// Observability surface: one metrics registry threading through every
// constructor, an HTTP exposition endpoint (Prometheus text, JSON,
// expvar, optional pprof) and a sampled chunk-lifecycle tracer. The
// instruments live in internal/obs; this file re-exports the types and
// adds the facade glue — NewMetricsRegistry wires the process-wide
// symbol-pool and session instruments in, WithMetrics/WithTracer carry
// the handles through Config into the delivery constructors, and the
// spec key "metrics" lets one configuration line request an endpoint
// the cmd/* tools serve.
//
// Everything is nil-safe by construction: a Config without metrics
// builds exactly the uninstrumented components it always did, and the
// hot paths stay allocation-free either way.

import (
	"io"

	"fecperf/internal/obs"
	"fecperf/internal/session"
	"fecperf/internal/symbol"
)

// Observability types, re-exported.
type (
	// MetricsRegistry names, holds and exposes a process's instruments:
	// counters, gauges and histograms, all under the "fecperf" namespace.
	// Every delivery constructor accepts one via WithMetrics.
	MetricsRegistry = obs.Registry
	// MetricsLabels is the ordered label set of one metric series.
	MetricsLabels = obs.Labels
	// MetricsServer is a running exposition endpoint (ServeMetrics).
	MetricsServer = obs.Server
	// MetricsServeConfig tunes the exposition server (pprof, extra
	// handlers such as a daemon's ControlHandler).
	MetricsServeConfig = obs.ServeConfig
	// HistogramSnapshot is a point-in-time histogram state; snapshots
	// from shards merge exactly (order-independent integer sums).
	HistogramSnapshot = obs.HistSnapshot
	// Tracer records sampled chunk/object lifecycle events as JSONL.
	Tracer = obs.Tracer
	// TracerConfig tunes a Tracer's sampling (fraction and seed).
	TracerConfig = obs.TracerConfig
	// TraceEvent is one JSONL trace record.
	TraceEvent = obs.Event
)

// Trace event names, in lifecycle order: enqueue → first_tx → kth_rx →
// decode → write → verify. See the constants in internal/obs for the
// per-event field semantics.
const (
	TraceEnqueue = obs.TraceEnqueue
	TraceFirstTx = obs.TraceFirstTx
	TraceKthRx   = obs.TraceKthRx
	TraceDecode  = obs.TraceDecode
	TraceWrite   = obs.TraceWrite
	TraceVerify  = obs.TraceVerify
)

// NewMetricsRegistry returns a registry with the library's process-wide
// instruments attached: the shared symbol-pool counters and the
// session-layer encode/decode latency histograms. Component-level
// series (sender_*, receiver_*, caster_*, collector_*, engine_*) join
// when the registry is passed to a constructor via WithMetrics.
//
// The session instruments are process-global: when several registries
// exist, the most recent NewMetricsRegistry call owns the session
// histograms. One registry per process is the intended shape.
func NewMetricsRegistry() *MetricsRegistry {
	r := obs.NewRegistry("fecperf")
	symbol.Register(r)
	session.Instrument(r)
	return r
}

// ServeMetrics starts an HTTP exposition server on addr:
//
//	/metrics       Prometheus text format
//	/metrics.json  the same registry as one JSON object
//	/debug/vars    standard expvar (the registry published under "fecperf")
//	/debug/pprof/  (with MetricsServeConfig.Pprof) the standard profiles
//
// It returns once the listener is bound, serving in the background;
// Close the server to stop. addr ":0" picks a free port — read it back
// with Addr. With Extra handlers, every route answers 403 to a Host or
// Origin not the listener's own, a scraper's DNS name included.
func ServeMetrics(addr string, r *MetricsRegistry, cfg MetricsServeConfig) (*MetricsServer, error) {
	return obs.Serve(addr, r, cfg)
}

// NewTracer returns a tracer writing sampled lifecycle events to w as
// JSON lines. Sampling is per-object and deterministic in (Seed,
// object ID), so the sender and receiver of one cast — given the same
// seed — trace the same objects. Pass it to constructors with
// WithTracer; Flush (or Close) before reading the log.
func NewTracer(w io.Writer, cfg TracerConfig) *Tracer { return obs.NewTracer(w, cfg) }

// WithMetrics registers the constructed component's counters on r
// (Go-only: the handle does not serialize into Spec; the spec key
// "metrics" carries an endpoint address instead).
func WithMetrics(r *MetricsRegistry) Option {
	return func(c *Config) error {
		c.Metrics = r
		return nil
	}
}

// WithTracer records the constructed component's chunk-lifecycle events
// on t (Go-only: does not serialize into Spec).
func WithTracer(t *Tracer) Option {
	return func(c *Config) error {
		c.Tracer = t
		return nil
	}
}
