// Package fecperf reproduces "Impacts of Packet Scheduling and Packet Loss
// Distribution on FEC Performances: Observations and Recommendations"
// (Neumann, Roca, Francillon, Furodet — INRIA RR-5578, 2005) as a reusable
// Go library with no dependencies beyond the standard library: the
// paper's FEC codes, transmission models and loss channels, a simulation
// engine that measures them, and a broadcast transport that ships real
// bytes through them.
//
// This is an overview of the entry points. README.md is the manual; its
// section names are given in parentheses.
//
// One Config drives every constructor, parsed from a one-line spec
// (ParseSpec / WithSpec; later lines override earlier keys). Only the Go
// values a line cannot carry have options of their own: WithPacer,
// WithCastProgress, WithCollectProgress, WithMetrics and WithTracer
// (README "Public API" and "Delivery keys"):
//
//	agg, _ := fecperf.Simulate(fecperf.WithSpec(
//	    "codec=ldgm-staircase(k=1000,ratio=2.5),sched=tx2,channel=gilbert(p=0.01,q=0.79),trials=100"))
//	fmt.Printf("mean inefficiency: %.3f\n", agg.MeanIneff())
//
// Simulation (README "Architecture", "Fleet simulation"): Simulate
// measures one point; RunPlan expands a declarative Plan over code × k ×
// ratio × schedule × channel × n_sent — a (p, q) grid is its channel axis —
// into checkpointed, resumable points whose results are identical at any
// worker count; RunFleet measures one shared transmission watched by up
// to 10⁶ receivers. BestTuple, UniversalTuples and OptimalNSent are the
// paper's Section-6 recommender.
//
// Delivery (README "Public API", "Batched networking"): NewCaster cuts an
// io.Reader of any length into a train of FEC-encoded chunks with bounded
// memory and NewCollector reassembles and verifies it into an io.Writer;
// NewObject encodes one in-memory object, NewBroadcaster carousels
// objects and NewReceiverDaemon demultiplexes them, over a TransportConn
// from Dial / Listen (UDP, multicast) or NewLoopback (in-memory, impaired
// by any channel spec). NewBroadcastDaemon multiplexes many casts over
// one weighted pacer with an HTTP control plane (README "Running the
// daemon"); cmd/feccast and cmd/feccastd are the same code as binaries.
//
// Parts (README "Architecture", "Streaming schedules"): each enters by
// its spec string, CodecByName, SchedulerByName and ChannelByName, and
// renders back. A ChannelSpec's New is the loss process the engine
// steps; TraceChannelSpec is the one channel no string names. A Codec's
// PayloadDecoder states the symbol pool's buffer-ownership contract, and
// a Scheduler draws a streaming, O(1)-memory Schedule.
//
// Observability (README "Observability"): NewMetricsRegistry,
// ServeMetrics and WithMetrics expose the fecperf_ metric catalog;
// NewTracer records per-object lifecycle events.
//
// Performance (README "Performance", "Benchmarks"): `go run ./bench`
// measures verified goodput end to end and attributes it to layers.
//
// The examples/ directory holds complete programs: streaming a file
// through a lossy broadcast (filecast), multi-receiver broadcast,
// channel-driven tuning (channeltune), a plan sweep (plansweep) and the
// interleaving-versus-burst demonstration.
package fecperf
