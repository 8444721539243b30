// Package fecperf reproduces "Impacts of Packet Scheduling and Packet Loss
// Distribution on FEC Performances: Observations and Recommendations"
// (Neumann, Roca, Francillon, Furodet — INRIA RR-5578, 2005) as a reusable
// Go library.
//
// The library bundles, from scratch and with no dependencies beyond the
// standard library:
//
//   - three application-layer FEC codes for packet erasure channels:
//     Reed-Solomon over GF(2^8) (small blocks, MDS) and the large-block
//     LDGM Staircase / LDGM Triangle codes with an incremental iterative
//     decoder;
//   - the paper's six packet transmission models (Tx_model_1..6), its
//     reception model, and the no-FEC repetition baseline — all as
//     streaming, O(1)-memory schedules (see Scheduling below);
//   - the two-state Gilbert loss channel with its analytic companions
//     (global loss probability, decoding-impossibility limits, parameter
//     estimation from traces);
//   - a parallel experiment engine: declarative plans over
//     (code × k × ratio × schedule × channel × n_sent) axes expand into
//     serializable points whose trials run sharded across a worker pool,
//     with cancellation, progress, streaming results and JSON-lines
//     checkpoint/resume — deterministic in the seed at any worker count;
//   - every figure and table of the paper as a runnable experiment, and
//     the Section-6 recommender (best tuple for a known channel, universal
//     schemes for unknown channels, optimal n_sent sizing);
//   - a broadcast transport that carries the delivery session across real
//     networks: UDP/UDP-multicast and lossy in-memory loopback backends
//     behind one Conn abstraction, a rate-limited carousel sender driven
//     by the paper's transmission models, and a receiver daemon that
//     demultiplexes any number of objects with bounded memory;
//   - streaming large-object delivery on top of it: a Caster that cuts an
//     io.Reader of arbitrary size into a train of FEC-encoded chunks with
//     bounded memory, and a Collector that reassembles the train in order
//     into an io.Writer with end-to-end verification;
//   - a long-running broadcast daemon (NewBroadcastDaemon, cmd/feccastd)
//     multiplexing many live casts over one shared hierarchical pacer,
//     with an HTTP control plane, round-boundary reloads and graceful
//     drain.
//
// # The unified spec grammar
//
// Every top-level constructor — NewCaster, NewCollector, NewObject,
// Simulate — consumes one Config, assembled from functional options
// (WithCodec, WithScheduler, WithChannel, WithRate, ...) or parsed from
// a one-line spec (ParseSpec / WithSpec), or both (later options
// override earlier ones):
//
//	fecperf.Simulate(fecperf.WithSpec(
//	    "codec=ldgm-staircase(k=1000,ratio=2.5),sched=tx2,channel=gilbert(p=0.01,q=0.79),trials=100"))
//
// The grammar is uniform: a base name plus parenthesised key=value
// parameters, nesting freely; CodecByName, SchedulerByName and
// ChannelByName resolve its parts individually, and every resolved
// value renders back (Name(); String() for a channel), so configurations
// round-trip through Config.Spec into CLI flags, engine plans and
// checkpoint files. A loss channel has one description throughout: the
// ChannelSpec that ChannelByName parses is what plans, fleet mixes and
// checkpoints hold and what builds each trial's chain. The
// nine keys that say what goes on the air — codec, sched, payload,
// batch, window, rounds, nsent, seed, object — are one type, Delivery,
// embedded by Config and by feccastd's CastSpec: one parse, one set of
// defaults (README, "Delivery keys"), so a line is the same code and
// packet order simulated, cast by the library or served by the daemon.
//
// # Streaming delivery: Caster and Collector
//
// NewObject FEC-encodes one in-memory object; NewCaster streams a byte
// source of arbitrary, unknown length. The caster cuts the stream into
// chunks of k symbols (codec spec k × payload size), FEC-encodes each,
// and transmits a sliding window of them as interleaved carousel
// rounds — at most window chunks are resident, which is both the
// memory bound and the backpressure on the reader. After the last byte
// it seals the train with a small manifest object (chunk count, total
// size, whole-stream CRC-32). Chunk object IDs are consecutive
// (base+1+i), so the receiving Collector orders chunks before the
// manifest arrives, writes the contiguous prefix to its io.Writer as
// chunks decode (buffering at most pending out-of-order completions),
// and verifies length and CRC end to end before reporting success:
//
//	caster, _ := fecperf.NewCaster(conn, file, fecperf.WithSpec(
//	    "codec=rse(k=256,ratio=1.5),sched=tx4,rate=8000,object=7"))
//	err := caster.Run(ctx)
//
//	col, _ := fecperf.NewCollector(conn2, out, fecperf.WithSpec("object=7"))
//	err = col.Run(ctx) // nil once the train is complete and verified
//
// Every datagram is self-describing, so chunk codecs and the manifest's
// (always Reed-Solomon) codec mix freely on one train. See
// examples/filecast and the bounded-memory end-to-end test in
// stream_test.go: 68 MiB through a Gilbert-impaired loopback in a
// ~13 MiB heap.
//
// # Payload codecs and buffer ownership
//
// Every code family — Reed-Solomon over GF(2^8) ("rse") and GF(2^16)
// ("rse16"), the three LDGM variants, and the "no-fec" repetition
// baseline — implements one payload interface pair (NewCodec): Codec
// encodes k source symbols into n-k parity, PayloadDecoder rebuilds the
// source incrementally from whatever arrives. The delivery session and
// transport are written purely against that surface; family dispatch
// happens once, in the codec registry, keyed by name or by a datagram's
// OTI.
//
// Symbol buffers come from a size-classed pool with a strict ownership
// contract. A payload handed to PayloadDecoder.ReceivePayload is only
// borrowed for the call — the decoder copies it exactly once into a
// pooled buffer it owns (this is the receive path's only copy; transport
// read buffers are reused immediately). Slices returned by Source belong
// to the decoder and die with Close, which returns every pooled buffer
// it holds. Parity returned by Codec.Encode is pooled and owned by the
// caller: release it with ReleaseSymbol (DeliveryObject.Close does this
// for a whole encoded object), or simply drop it to the garbage
// collector. A pooled buffer must never be released twice or retained
// past its release.
//
// The kernels under the codecs: word-wide XOR and a fused matrix ×
// symbol-vector multiply-accumulate in GF(2^8), low/high-byte split
// product tables in GF(2^16), each tested against a scalar reference.
// Segmented Reed-Solomon objects encode blocks in parallel across
// GOMAXPROCS goroutines; a Reed-Solomon block missing e sources decodes
// by solving only the e×e erased subsystem.
//
// # Scheduling
//
// A Scheduler turns an object's packet Layout into a transmission
// order. Orders are streaming Schedule values, not materialised
// slices: Len and At(i) evaluate any position in O(1) time and memory,
// a Cursor iterates (and forks — copying a cursor forks the iteration
// state), and Truncate takes a lazy prefix for the paper's n_sent
// optimisation. Randomised models realise their shuffles as seeded
// format-preserving permutations (Feistel networks with cycle-walking)
// and the deterministic models (Tx_model_1, Tx_model_5's interleave
// and proportional merge) are closed-form arithmetic, so drawing a
// schedule allocates nothing however large the object.
//
// The determinism contract: a scheduler captures all randomness at
// Schedule time (at most two 64-bit draws from its rng for the paper
// models; the carousel draws its inner model's seeds per round); the returned
// Schedule is a pure function of position and may be re-evaluated,
// truncated, or seeked freely. The broadcast carousel exploits this
// for deterministic mid-round resume: round r's order for object i
// depends only on (seed, r, i), so a restarted sender configured with
// BroadcasterConfig.StartRound/StartPos continues the exact datagram
// sequence the original run would have produced.
//
// SchedulerByName resolves models by name, including parameterized
// forms — "tx6(frac=0.3)", "rx1(src=12)", "repeat(x=3)",
// "carousel(inner=tx2,rounds=4)" — and every scheduler's Name() parses
// back (plans and checkpoints persist schedulers by name).
// ScheduleFromIDs wraps an explicit order.
//
// # Transport
//
// The delivery session (NewObject / NewDeliveryReceiver) turns byte
// objects into self-describing datagrams; the transport layer moves
// them. NewBroadcaster streams encoded objects as a carousel — every
// round re-scheduled by a Tx model, paced by a token bucket — over a
// TransportConn from Dial (UDP) or NewLoopback (in-memory).
// NewReceiverDaemon drains the other end through one table keyed by
// object ID — an entry reassembles under an LRU bound, then remembers
// its decoded ID under a FIFO bound — and hands every decoded object to
// one sink: its own byte store, or a Collector's in-order writer.
// Loopback receivers accept any Channel as a live impairment
// (NewImpairment builds one from a channel spec), so a Gilbert-loss
// broadcast is one process with no sockets: see
// examples/filecast. cmd/feccast is the same pipeline over real UDP.
//
// The datapath is kernel-batched. A TransportConn moves datagrams
// through WriteBatch / ReadBatch (Send / Recv are the one-datagram
// convenience): on Linux amd64/arm64 the UDP backend moves up to 64
// datagrams per sendmmsg/recvmmsg crossing and coalesces equal-size
// runs into UDP GSO superpackets (probed at dial time, latched off on
// the first kernel refusal), while other platforms keep the portable
// loop behind build tags. The carousel gathers views of its objects'
// frames and flushes them a batch at a time (Config.BatchSize, spec key
// "batch", feccast -batch; default one datagram) — one pacer debit and
// one kernel crossing per flush, zero allocations, zero copies — and
// the receiver daemon drains its socket a batch per crossing. The batch
// size never changes the carousel: the datagram sequence, loopback loss
// pattern (the channel chain steps in 64-wide masks over the same
// splitmix64 stream) and decoded bytes are identical at every size,
// only syscall count and pacing granularity change. go run ./bench
// -trace reports the batched socket cost per datagram inside a real
// cast (transport.udp.write_ns_per_pkt, read_ns_per_pkt).
//
// A payload byte is copied four times between the source reader and
// the destination writer, and nowhere else (figures from go run ./bench
// -trace, seed 1, cast-ldgm-smallpkt at 128 B / cast-rse-clean at 1 KiB
// symbols):
//
//	sender    source -> slab        EncodeObject scatters into the frame slab;
//	                                parity is computed in place
//	                                (48 / 81 us per 256 KiB chunk beyond the codec)
//	sender    slab -> conn          the conn gathers from views of the frames
//	                                (the sender copies nothing; a copied-out
//	                                frame costs 9.6 / 35 ns)
//	receiver  conn -> read buffer   ReadBatch into the daemon's slots
//	                                (34 / 155 ns per datagram, write + read)
//	receiver  read buffer -> slab   the payload decoder, to the final offset
//	                                (session overhead 16 / 28 ns per datagram)
//
// The decoded object is the decoder's source slab: a Collector writes
// and checksums it in place and hands the slab back to the pool, so a
// cast of any length runs on the slabs of one window, and the symbol
// pool is visited once per 64 KiB rather than once per symbol.
// ReceiverDaemon.Object, WaitObject and OnComplete hand out a copy in
// memory of its own instead, which is never recycled under its holder.
//
// # Broadcast daemon
//
// NewBroadcastDaemon multiplexes many concurrent casts — file
// carousels and streaming Caster trains — through one process, one
// shared rate budget and one batched socket per destination group.
// The budget is a hierarchical token-bucket pacer (NewSharedPacer):
// each cast's share is assured rate·weight/Σweights, idle capacity
// spills into a surplus pool any busy cast may borrow, so the pacer is
// work-conserving and contended casts split the line rate in exact
// weight proportion. WithPacer hands a PacerShare to any standalone
// sender or caster for custom topologies.
//
// Casts are one-line CastSpecs (ParseCastSpec — the Delivery keys plus
// name=, addr=, mode=, file= and weight=) and fully live:
// AddCast/RemoveCast while running, Reload applying mutable keys
// (weight, ratio, sched, batch, rounds, nsent) at a round boundary so
// receivers only ever see whole decodable rounds — immutable keys
// (addr, object, source, code geometry) are rejected with a diff error. Drain stops every cast after its
// in-flight round, bounded by DrainTimeout. ControlHandler serves the
// JSON control plane (GET/POST /casts, POST /casts/{name}/reload,
// DELETE /casts/{name}, POST /drain) and mounts on the metrics server
// via MetricsServeConfig.Extra; per-cast counters land in the shared
// registry labelled {cast="name"}. cmd/feccastd wraps all of it in a
// supervisor-friendly binary: -casts spec file, SIGHUP convergence,
// SIGTERM graceful drain. bench's udp-daemon-paced workload measures the
// pacer's fairness over real sockets (daemon.share_dev_pct).
//
// # Experiment engine
//
// Simulate and SweepGrid cover single points and (p, q) grids; RunPlan is
// the general form. A Plan declares axes (codes, object sizes, ratios,
// transmission models, channel specs, truncation points); the engine
// expands their cartesian product into points, splits every point's
// trials into shards executed by one bounded worker pool, and merges
// partial aggregates in a fixed order, so the result is identical for
// any PlanOptions.Workers. Per-trial seeds derive from the plan seed by
// splitmix64 hashing of the point's configuration key — extending a plan
// never changes the results of existing points, and a JSON-lines
// checkpoint (PlanOptions.CheckpointPath) lets an interrupted sweep
// resume without recomputing finished points. See examples/plansweep.
//
// # Fleet simulation
//
// The scalar engine repeats independent trials of one receiver; fleet
// mode answers the operational question behind a broadcast deployment:
// one sender, one shared transmission order, 10⁵–10⁶ heterogeneous
// receivers — what does the completion CDF of the whole fleet look
// like? RunFleet executes one fleet point; Plan.Fleets replaces the
// Channels axis so fleets sweep across codes, schedulers and object
// sizes like any other point, with the same checkpoint/resume and
// worker-count determinism:
//
//	sum, _ := fecperf.RunFleet(ctx, fecperf.FleetRunSpec{
//	    Code: code, Scheduler: sched,
//	    Fleet: fecperf.FleetSpec{
//	        Receivers: 1_000_000,
//	        Mix: []fecperf.MixComponent{
//	            {Channel: fecperf.GilbertChannelSpec(0.05, 0.5), Weight: 2},
//	            {Channel: fecperf.BernoulliChannelSpec(0.03), Weight: 1},
//	        },
//	    },
//	    Seed: 42,
//	}, 0)
//	fmt.Printf("p99 completion: %.0f symbols\n", sum.Completion.P99)
//
// Three structural choices make a million receivers cheap. The shared
// schedule is drawn once and fanned out — every worker walks its own
// O(1) cursor copy of the same lazy order. Receiver state is
// struct-of-arrays: a block-MDS code (rse, rse16, repetition — the
// codes that decode a block at exactly its threshold of distinct
// symbols) reduces a receiver to packed countdown counters, a channel
// state word and a reception count, a few tens of bytes per receiver
// (≤64 B guaranteed; ~27 B at k=256), with a per-receiver dedup bitmap
// added only when the schedule can repeat packets (carousels, repeat).
// And channel sampling is batched: gilbert, bernoulli and noloss mix
// channels advance 64 transmissions per call with branch-free integer
// arithmetic on a raw splitmix64 state word, bit-for-bit equivalent to
// the scalar channel chain (LDGM codes and markov/trace channels are
// rejected up front). The summary reports nearest-rank p50/p90/p99/p999
// completion-position and inefficiency percentiles, overall and per mix
// component (-1 marks fractions the fleet never reached), and is
// byte-identical for every worker count. cmd/fecsim runs fleet points
// from the command line (-fleet N -mix "spec:weight,..."), and the
// sim-paper-grid workload of `go run ./bench` measures the throughput
// (>10⁸ receiver-symbol events/s single-core).
//
// # Observability
//
// The library instruments its hot paths behind a zero-dependency
// metrics core (internal/obs): atomic counters and gauges, fixed-bucket
// histograms with lock-free per-bucket atomics, and a namespaced
// registry that renders Prometheus text and expvar-style JSON.
// Everything is nil-safe — a component built without a registry runs
// the exact uninstrumented code it always did, and the sender round
// loop and schedule draws stay 0 allocs/op either way
// (TestSenderBatchedRoundAllocCeiling, TestCursorWalkAllocsNothing).
//
//	reg := fecperf.NewMetricsRegistry()          // + symbol pool & session instruments
//	srv, _ := fecperf.ServeMetrics(":9090", reg, fecperf.MetricsServeConfig{})
//	defer srv.Close()
//	caster, _ := fecperf.NewCaster(conn, src,
//	    fecperf.WithSpec(spec), fecperf.WithMetrics(reg))
//
// ServeMetrics exposes /metrics (Prometheus text v0.0.4), /metrics.json
// (one flat JSON object), /debug/vars (standard expvar) and, opted in,
// /debug/pprof/. The spec key "metrics" (metrics=:9090) carries the
// endpoint address through one-line configurations; cmd/feccast and
// cmd/fecsim serve it (-metrics overrides).
//
// The metric catalog, all under the fecperf_ namespace. Broadcast
// carousel (WithMetrics via BroadcasterConfig.Metrics): sender_packets_total,
// sender_bytes_total, sender_rounds_total, sender_pacer_wait_ns_total,
// sender_resumes_total, sender_batches_total (every flush), the
// sender_batch_size histogram (when BatchSize > 1) and the
// sender_gso_enabled gauge. Receiver daemon: receiver_packets_total,
// receiver_bytes_total, receiver_packets_ingested_total,
// receiver_packets_duplicate_total, receiver_packets_dropped_total
// {reason=bad|late|inconsistent|truncated}, receiver_objects_started_total,
// receiver_objects_decoded_total, receiver_objects_evicted_total,
// receiver_inflight_objects, receiver_read_batches_total, the
// receiver_read_batch_size histogram, and the receiver_decode_seconds
// histogram (first ingested datagram to decoded object). Caster:
// caster_packets_total, caster_bytes_total, caster_chunks_total,
// caster_bytes_read_total, caster_pacer_wait_ns_total,
// caster_window_chunks. Collector: collector_chunks_written_total,
// collector_bytes_written_total, collector_crc_failures_total,
// collector_pending_chunks. Broadcast daemon (Config.Metrics):
// daemon_casts, daemon_groups, daemon_rate_pps, daemon_reloads_total,
// daemon_drains_total, daemon_cast_errors_total,
// daemon_casts_added_total, daemon_casts_removed_total, and per cast
// under the {cast="name"} label daemon_cast_packets_total,
// daemon_cast_bytes_total, daemon_cast_rounds_total,
// daemon_cast_pacer_wait_ns_total, daemon_cast_reloads_total,
// daemon_cast_weight and daemon_cast_share_utilization_permille
// (1000 means consuming exactly the assured share; above means
// borrowing idle capacity). Session (process-wide, attached by
// NewMetricsRegistry): session_encode_seconds and
// session_decode_seconds histograms. Symbol pool (process-wide):
// symbol_pool_gets_total, symbol_pool_puts_total,
// symbol_pool_misses_total, symbol_pool_jumbo_total,
// symbol_live_buffers. Experiment engine (PlanOptions.Metrics):
// engine_trials_total, engine_shards_total, engine_points_total,
// engine_checkpoint_writes_total, engine_points_restored_total, and for
// fleet points engine_fleet_receivers_total,
// engine_fleet_receivers_completed_total, engine_fleet_events_total,
// engine_fleet_shards_total, the engine_fleet_live_shards gauge and the
// engine_fleet_completion_symbols histogram.
// Tracer (Tracer.Register): trace_events_total, trace_errors_total.
//
// NewTracer records chunk/object lifecycle events as JSON lines —
// enqueue, first_tx, kth_rx (the k-th distinct symbol arriving, the
// MDS decode threshold), decode (with nanosecond latency), write and
// verify — with deterministic per-object sampling: the object ID is
// hashed with the splitmix64 finalizer under TracerConfig.Seed, so a
// sampled object contributes its whole lifecycle and two processes
// tracing the same cast with the same seed sample the same objects.
// Pass it with WithTracer; cmd/feccast writes it with -trace.
//
// # Performance
//
// The hot paths are engineered end to end. The GF(2^8) kernels are
// assembly chosen from CPUID at start-up (GFNI or AVX2 on amd64, NEON on
// arm64) over a portable tier that -tags purego forces. Session encode
// resolves codecs from a process-wide cache and lays each object out once,
// as ready-to-send frames in one pooled slab (3 allocs per object); the
// carousel sends views of those frames, the decoders place every payload
// at its final offset in the object's slab, and receiver ingest allocates
// nothing in steady state — see "Transport" for the copies a payload byte
// still makes. Transmission schedules are never materialised: sequential
// senders walk them through a batched cursor whose draws beat iterating a
// pre-shuffled slice, at zero allocations. `go run ./bench` measures the
// whole path end to end and attributes the time to layers
// (bench/README.md), and the README's Performance section explains the
// techniques.
//
// # Quick start
//
//	agg, _ := fecperf.Simulate(fecperf.WithSpec(
//	    "codec=ldgm-staircase(k=1000,ratio=2.5),sched=tx2,channel=gilbert(p=0.01,q=0.79),trials=100"))
//	fmt.Printf("mean inefficiency: %.3f\n", agg.MeanIneff())
//
// See the examples/ directory for complete programs: streaming a file
// through lossy broadcast (filecast), encoding and decoding real
// payloads, multi-receiver broadcast, channel-driven tuning, and the
// interleaving-vs-burst demonstration.
package fecperf
