package fecperf

// The broadcast daemon: one long-running process multiplexing many
// concurrent casts — file carousels and streaming chunk trains — over
// a single shared hierarchical pacer and one batched socket per
// destination group. NewBroadcastDaemon builds it in-process (the
// cmd/feccastd binary is a thin shell over the same entry point);
// casts are described by one-line specs (ParseCastSpec) or literal
// CastSpec values, managed live (add/remove/reload/drain) through Go
// calls or the daemon's HTTP control plane (ControlHandler, mounted on
// the metrics listener via ServeMetrics extras).

import (
	"fecperf/internal/daemon"
	"fecperf/internal/transport"
)

// Broadcast-daemon types, re-exported.
type (
	// BroadcastDaemon multiplexes many concurrent casts over one shared
	// pacer and one connection per destination group. Manage casts with
	// AddCast / RemoveCast / Reload / AddObject / RemoveObject, observe
	// them with Casts / CastStatus, stop with Drain (graceful, whole
	// rounds) or Close (immediate).
	BroadcastDaemon = daemon.Daemon
	// BroadcastDaemonConfig sets the daemon's global send budget (Rate,
	// Burst in packets), transport batching, drain deadline, and
	// observability hooks.
	BroadcastDaemonConfig = daemon.Config
	// CastSpec describes one cast: destination, mode (carousel or
	// stream), source, weight, and per-cast codec/schedule overrides.
	// Serialize with Spec, parse with ParseCastSpec.
	CastSpec = daemon.CastSpec
	// CastStatus is a point-in-time snapshot of one cast, as reported by
	// the control plane.
	CastStatus = daemon.CastStatus
)

// Cast modes and lifecycle states, re-exported.
const (
	CastModeCarousel = daemon.ModeCarousel
	CastModeStream   = daemon.ModeStream

	CastStateRunning  = daemon.StateRunning
	CastStateDraining = daemon.StateDraining
	CastStateDone     = daemon.StateDone
	CastStateFailed   = daemon.StateFailed
)

// DefaultDrainTimeout bounds a graceful drain before in-flight casts
// are hard-cancelled.
const DefaultDrainTimeout = daemon.DefaultDrainTimeout

// NewBroadcastDaemon returns a running (empty) broadcast daemon:
//
//	d := fecperf.NewBroadcastDaemon(fecperf.BroadcastDaemonConfig{Rate: 50000})
//	defer d.Close()
//	cs, _ := fecperf.ParseCastSpec("name=docs,addr=239.0.0.1:9000,file=docs.tar,weight=2")
//	err := d.AddCast(cs)
//
// All casts split Config.Rate through one work-conserving hierarchical
// token bucket in proportion to their weights; idle shares' capacity
// flows to busy ones.
func NewBroadcastDaemon(cfg BroadcastDaemonConfig) *BroadcastDaemon {
	return daemon.New(cfg)
}

// ParseCastSpec parses a one-line cast description, e.g.
//
//	name=docs,addr=239.0.0.1:9000,file=docs.tar,mode=carousel,
//	weight=2,codec=rse(k=64,ratio=1.5),sched=tx4,object=7
//
// Unknown keys are rejected; Spec on the result renders the canonical
// form back.
func ParseCastSpec(line string) (CastSpec, error) { return daemon.ParseCastSpec(line) }

// Shared-pacer types, re-exported.
type (
	// SharedPacer is a hierarchical token bucket splitting one global
	// packet rate across weighted shares, work-conserving.
	SharedPacer = transport.SharedPacer
	// PacerShare is one sender's slice of a SharedPacer, the admission
	// source WithPacer and BroadcasterConfig.Pacer take.
	PacerShare = transport.PacerShare
)

// NewSharedPacer returns a hierarchical pacer admitting rate packets
// per second in aggregate; AddShare carves weighted slices for
// individual senders:
//
//	sp := fecperf.NewSharedPacer(50000, 0)
//	a, _ := fecperf.NewCaster(conn, src, fecperf.WithPacer(sp.AddShare(2)))
//	b, _ := fecperf.NewCaster(conn2, src2, fecperf.WithPacer(sp.AddShare(1)))
//
// burst <= 0 selects a default bucket depth; rate <= 0 returns nil
// (unpaced — AddShare on a nil pacer returns nil shares, and a nil
// *PacerShare admits everything).
func NewSharedPacer(rate float64, burst int) *SharedPacer {
	return transport.NewSharedPacer(rate, burst)
}
