package main

// The metric catalogue. BENCHMARK.json at the repository root declares
// the same names, units, directions and bounds; a test keeps the two in
// step. Every workload reports every metric: one a workload's layers do
// not touch reads 0 on the per-layer side, and the end-to-end side is
// defined (below, and in README.md) so that it is meaningful on all
// five.

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median the metric may worsen by (end-to-end only)
}

// runSeconds is how long one run measures by default — BENCHMARK.json's
// run_seconds.
const runSeconds = 20

// nominalSymbol is the symbol size the simulation workload's byte
// figures are expressed in: a simulated reception moves no bytes, so
// the per-byte metrics count k nominal 1 KiB symbols per decoded
// reception (the symbol size of the cast workloads' Reed-Solomon runs).
const nominalSymbol = 1024

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_mb_s", "MB/s", "higher", 0.25},
	{"cpu_s_per_gib", "s/GiB", "lower", 0.25},
	{"chunk_latency_p50_ms", "ms", "lower", 0.25},
	{"inefficiency_ratio", "ratio", "lower", 0.05},
	{"delivered_ratio", "ratio", "higher", 0},
	{"alloc_mib_per_gib", "MiB/GiB", "lower", 0.05},
	{"trials_per_s", "1/s", "higher", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
}

// endToEndDef returns the named end-to-end metric's definition.
func endToEndDef(name string) metricDef {
	for _, d := range endToEnd {
		if d.Name == name {
			return d
		}
	}
	panic("bench: no end-to-end metric " + name)
}

// exactRepeat lists the metrics that are pure functions of the seed:
// two runs with one seed must agree on them to the last bit.
var exactRepeat = []string{
	"inefficiency_ratio", "link.tx_datagrams", "link.erased", "transport.receiver.pkts_ingested",
}

var perLayer = []metricDef{
	// source / sink (harness)
	{Name: "source.read_s", Unit: "s", Better: "lower"},
	{Name: "sink.write_s", Unit: "s", Better: "lower"},
	// link (harness)
	{Name: "link.tx_datagrams", Unit: "count", Better: "lower"},
	{Name: "link.tx_batch_mean", Unit: "count", Better: "higher"},
	{Name: "link.tx_blocked_s", Unit: "s", Better: "lower"},
	{Name: "link.erased", Unit: "count", Better: "lower"},
	{Name: "link.rx_batch_mean", Unit: "count", Better: "higher"},
	{Name: "link.rx_wait_s", Unit: "s", Better: "lower"},
	{Name: "link.ns_per_pkt", Unit: "ns", Better: "lower"},
	// transport: caster / sender
	{Name: "transport.caster.run_s", Unit: "s", Better: "lower"},
	{Name: "transport.caster.busy_s", Unit: "s", Better: "lower"},
	{Name: "transport.caster.pacer_wait_s", Unit: "s", Better: "lower"},
	// transport: collector / receiver
	{Name: "transport.collector.run_s", Unit: "s", Better: "lower"},
	{Name: "transport.collector.busy_s", Unit: "s", Better: "lower"},
	{Name: "transport.receiver.pkts_seen", Unit: "count", Better: "lower"},
	{Name: "transport.receiver.pkts_ingested", Unit: "count", Better: "lower"},
	{Name: "transport.receiver.pkts_late", Unit: "count", Better: "lower"},
	{Name: "transport.receiver.pkts_duplicate", Unit: "count", Better: "lower"},
	{Name: "transport.receiver.pkts_bad", Unit: "count", Better: "lower"},
	{Name: "transport.receiver.objects_decoded", Unit: "count", Better: "higher"},
	{Name: "transport.receiver.objects_evicted", Unit: "count", Better: "lower"},
	{Name: "transport.collector.chunk_latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.receiver.residual_ns_per_pkt", Unit: "ns", Better: "lower"},
	// codes (rse, ldpc through core.Codec)
	{Name: "codes.encode_us_per_chunk", Unit: "us", Better: "lower"},
	{Name: "codes.encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "codes.decode_us_per_chunk", Unit: "us", Better: "lower"},
	{Name: "codes.decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "codes.decodes", Unit: "count", Better: "lower"},
	// gf256
	{Name: "gf256.addmul4_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "gf256.xor_mb_s", Unit: "MB/s", Better: "higher"},
	// session
	{Name: "session.encode_us_per_chunk", Unit: "us", Better: "lower"},
	{Name: "session.frame_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "session.ingest_ns_per_pkt", Unit: "ns", Better: "lower"},
	// sched / core schedule
	{Name: "sched.draw_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.walk_ns_per_pkt", Unit: "ns", Better: "lower"},
	// wire
	{Name: "wire.decode_ns_per_pkt", Unit: "ns", Better: "lower"},
	// symbol
	{Name: "symbol.pool_gets", Unit: "count", Better: "lower"},
	{Name: "symbol.pool_misses", Unit: "count", Better: "lower"},
	{Name: "symbol.live_buffers_end", Unit: "count", Better: "lower"},
	// transport: udp, pacer
	{Name: "transport.udp.write_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "transport.udp.read_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "transport.udp.drop_ratio", Unit: "ratio", Better: "lower"},
	{Name: "transport.udp.gso_enabled", Unit: "count", Better: "higher"},
	{Name: "transport.pacer.take_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.pacer.rate_ratio", Unit: "ratio", Better: "higher"},
	// daemon
	{Name: "daemon.share_dev_pct", Unit: "%", Better: "lower"},
	{Name: "daemon.cast_pacer_wait_s", Unit: "s", Better: "lower"},
	// channel
	{Name: "channel.gilbert_step_ns", Unit: "ns", Better: "lower"},
	{Name: "channel.stepmask_ns_per_64", Unit: "ns", Better: "lower"},
	// core / engine
	{Name: "core.runtrial_us.rse", Unit: "us", Better: "lower"},
	{Name: "core.runtrial_us.ldgm-staircase", Unit: "us", Better: "lower"},
	{Name: "core.runtrial_us.ldgm-triangle", Unit: "us", Better: "lower"},
	{Name: "engine.plan.trials_per_s.rse", Unit: "1/s", Better: "higher"},
	{Name: "engine.plan.trials_per_s.ldgm-staircase", Unit: "1/s", Better: "higher"},
	{Name: "engine.plan.trials_per_s.ldgm-triangle", Unit: "1/s", Better: "higher"},
	{Name: "engine.fleet.state_bytes_per_receiver", Unit: "B", Better: "lower"},
	// runtime
	{Name: "runtime.heap_peak_mib", Unit: "MiB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	// budget (derived)
	{Name: "budget.sender_busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "budget.receiver_busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "budget.sender.codes-encode_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.sender.session_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.sender.sched_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.sender.frame_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.sender.link_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.sender.residual_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.receiver.wire_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.receiver.session-ingest_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.receiver.codes-decode_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.receiver.sink_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.receiver.link_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.receiver.residual_share", Unit: "ratio", Better: "lower"},
	{Name: "budget.sender_coverage", Unit: "ratio", Better: "higher"},
	{Name: "budget.receiver_coverage", Unit: "ratio", Better: "higher"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}
