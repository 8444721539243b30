package main

import (
	"context"
	"fmt"
	"time"

	"fecperf"
	"fecperf/internal/session"
	"fecperf/internal/wire"
)

// castWorkload streams one generated input from a Caster to a Collector
// over the harness link: a closed loop of one sender and one receiver
// with back-pressure. spec is the one-line configuration a feccast user
// would type; the harness parses it only to learn the chunk geometry.
type castWorkload struct {
	id, reason string
	spec       string // handed to NewCaster and NewCollector unchanged
	loss       string // link loss process ("" = lossless)
	sizeMiB    int
	corruptAt  int64 // test hook: the link flips a payload byte of this delivered datagram (0 = never)

	seed int64
	cfg  fecperf.Config
	in   *input
}

// drainGrace is how long a collector may take to finish once the
// caster has written its last datagram; everything it will ever get is
// in the link by then.
const drainGrace = 5 * time.Second

var castWorkloads = []*castWorkload{
	{
		id:      "cast-rse-lossy",
		reason:  "random order + 9% bursty loss: every chunk needs a real RS solve, so the receiver is the bottleneck",
		spec:    "codec=rse(k=256,ratio=1.5),sched=tx4,payload=1024,rounds=1,window=4",
		loss:    "gilbert(p=0.05,q=0.5)",
		sizeMiB: 32,
	},
	{
		id:      "cast-rse-clean",
		reason:  "same codec, sources first, no loss: zero decodes, so RS encode and the sender loop do the work",
		spec:    "codec=rse(k=256,ratio=1.5),sched=tx1,payload=1024,rounds=1,window=4",
		sizeMiB: 128,
	},
	{
		id:      "cast-ldgm-smallpkt",
		reason:  "XOR codec + 128-byte symbols, batched I/O: per-packet cost dominates and codec maths is small",
		spec:    "codec=ldgm-staircase(k=2048,ratio=1.5),sched=tx4,payload=128,rounds=1,window=4,batch=32",
		loss:    "gilbert(p=0.05,q=0.5)",
		sizeMiB: 64,
	},
}

func (w *castWorkload) name() string { return w.id }
func (w *castWorkload) why() string  { return w.reason }

func (w *castWorkload) prepare(seed int64, scale int) error {
	cfg, err := fecperf.ParseSpec(w.spec)
	if err != nil {
		return err
	}
	w.seed, w.cfg = seed, cfg
	// A whole number of full window groups: a short last chunk would be
	// an object of a few symbols, which 9% bursty loss can make
	// undecodable however strong the code is on full chunks.
	chunk := session.ChunkDataSize(cfg.Codec.K, cfg.PayloadSize)
	groups := w.sizeMiB << 20 / scale / (cfg.Window * cfg.Codec.K * cfg.PayloadSize)
	if groups < 2 {
		groups = 2
	}
	w.in = newInput(seed, groups*cfg.Window, chunk)
	return nil
}

// sampleChunks is how many of a train's first chunks the link records
// arrival order for, and the replay re-runs.
const sampleChunks = 16

func (w *castWorkload) rep(ctx context.Context, tr *tracer) repResult {
	res := repResult{attempted: w.in.chunks}
	fail := func(err error) repResult {
		res.note = err.Error()
		return res
	}
	l, err := newLink(w.loss, w.seed, uint32(w.cfg.BaseObjectID))
	if err != nil {
		return fail(err)
	}
	l.corrupt = w.corruptAt
	if tr != nil {
		perChunk := int(float64(w.cfg.Codec.K)*w.cfg.Codec.Ratio) + 1
		l.rec = &arrivalLog{base: w.cfg.BaseObjectID, objects: sampleChunks,
			ids: make([]uint64, 0, sampleChunks*perChunk)}
	}
	src, snk := newSource(w.in), newSink(w.in)
	src.tr, snk.tr = tr, tr
	caster, err := fecperf.NewCaster(linkTx{l}, src, fecperf.WithSpec(w.spec))
	if err != nil {
		return fail(err)
	}
	collector, err := fecperf.NewCollector(linkRx{l}, snk, fecperf.WithSpec(w.spec))
	if err != nil {
		return fail(err)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type ended struct {
		err error
		at  time.Time
	}
	castDone, collDone := make(chan ended, 1), make(chan ended, 1)
	m := startMeter(tr != nil)
	t0 := time.Now()
	go func() { err := caster.Run(ctx); castDone <- ended{err, time.Now()} }()
	go func() { err := collector.Run(ctx); collDone <- ended{err, time.Now()} }()
	var cast, coll ended
	select {
	case coll = <-collDone:
		l.closeRx() // the caster's tail goes unheard instead of blocking
		cast = <-castDone
	case cast = <-castDone:
		l.flush()
		grace := time.AfterFunc(drainGrace, cancel)
		coll = <-collDone
		grace.Stop()
		l.closeRx()
	}
	l.closeTx()
	use := m.end()
	tr.add("transport.caster.run", -1, t0, cast.at)
	tr.add("transport.collector.run", -1, t0, coll.at)

	switch {
	case coll.err != nil:
		res.note = "collector: " + coll.err.Error()
	case cast.err != nil:
		res.note = "caster: " + cast.err.Error()
	}
	res.verified = snk.verified
	if snk.off != len(w.in.data) && res.verified == res.attempted {
		res.verified-- // every chunk checked out but the stream is longer than what was sent
		res.note = fmt.Sprintf("sink received %d bytes, source served %d", snk.off, len(w.in.data))
	}
	if res.verified < res.attempted && res.note == "" {
		res.note = fmt.Sprintf("%d of %d chunks failed their CRC", res.attempted-res.verified, res.attempted)
	}

	wall := coll.at.Sub(t0).Seconds()
	bytes := float64(res.verified * w.in.chunk)
	cs, rs, ls := caster.Stats(), collector.CollectStats(), l.snapshot()
	sumK := w.in.chunks*w.cfg.Codec.K + 1 // full chunks, and the manifest's single symbol
	res.latenciesMS = latenciesMS(src, snk)
	res.e2e = perByteMetrics(bytes, wall, use)
	res.e2e["chunk_latency_p50_ms"] = median(res.latenciesMS)
	res.e2e["inefficiency_ratio"] = float64(rs.Receiver.PacketsIngested) / float64(sumK)
	res.e2e["delivered_ratio"] = float64(res.verified) / float64(res.attempted)
	res.e2e["trials_per_s"] = float64(res.verified) / wall
	res.e2e["events_per_s"] = float64(rs.Receiver.PacketsSeen) / wall

	casterRun := cast.at.Sub(t0).Seconds()
	lay := map[string]float64{
		"source.read_s":                 float64(src.readNS) / 1e9,
		"sink.write_s":                  float64(snk.writeNS) / 1e9,
		"link.tx_datagrams":             float64(ls.TxDatagrams),
		"link.tx_batch_mean":            ratio(float64(ls.TxDatagrams), float64(ls.TxBatches)),
		"link.tx_blocked_s":             float64(ls.TxBlockedNS) / 1e9,
		"link.erased":                   float64(ls.Erased),
		"link.rx_batch_mean":            ratio(float64(ls.RxDatagrams), float64(ls.RxBatches)),
		"link.rx_wait_s":                float64(ls.RxWaitNS) / 1e9,
		"transport.caster.run_s":        casterRun,
		"transport.caster.pacer_wait_s": float64(cs.PacerWaitNS) / 1e9,
		"transport.caster.busy_s": casterRun - float64(ls.TxBlockedNS)/1e9 -
			float64(cs.PacerWaitNS)/1e9 - float64(src.readNS)/1e9,
		"transport.collector.run_s":  wall,
		"transport.collector.busy_s": wall - float64(ls.RxWaitNS)/1e9,
	}
	receiverValues(lay, rs.Receiver)
	use.layerValues(lay)
	res.layer = lay
	res.arrivals = l.rec
	return res
}

// receiverValues renders a receiver daemon's counters as the
// transport.receiver.* metrics, adding to what is there (the UDP
// workload has two receivers).
func receiverValues(into map[string]float64, st fecperf.ReceiverStats) {
	into["transport.receiver.pkts_seen"] += float64(st.PacketsSeen)
	into["transport.receiver.pkts_ingested"] += float64(st.PacketsIngested)
	into["transport.receiver.pkts_late"] += float64(st.PacketsLate)
	into["transport.receiver.pkts_duplicate"] += float64(st.PacketsDuplicate)
	into["transport.receiver.pkts_bad"] += float64(st.PacketsBad + st.PacketsInconsistent + st.PacketsTruncated)
	into["transport.receiver.objects_decoded"] += float64(st.ObjectsDecoded)
	into["transport.receiver.objects_evicted"] += float64(st.ObjectsEvicted)
}

// perByteMetrics are the end-to-end metrics normalised by verified
// payload. With nothing verified they read 0, and the run is incorrect.
func perByteMetrics(bytes, wallS float64, use usage) map[string]float64 {
	gib := bytes / (1 << 30)
	return map[string]float64{
		"goodput_mb_s":      ratio(bytes/1e6, wallS),
		"cpu_s_per_gib":     ratio(use.cpuS, gib),
		"alloc_mib_per_gib": ratio(float64(use.allocBytes)/(1<<20), gib),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (w *castWorkload) layers(last repResult) (map[string]float64, error) {
	txBatch, rxBatch := w.cfg.BatchSize, w.cfg.BatchSize
	if txBatch < 1 {
		txBatch = 1 // the scalar send loop
	}
	if rxBatch < 1 {
		rxBatch = 16 // the receiver's default read batch
	}
	out, err := train{in: w.in, codec: w.cfg.Codec, payload: w.cfg.PayloadSize, scheduler: w.cfg.Scheduler.Name(),
		rounds: w.cfg.Rounds, base: w.cfg.BaseObjectID, arrivals: last.arrivals}.replay()
	if err != nil {
		return nil, err
	}
	tx, rx, err := linkCost(wire.HeaderLen+w.cfg.PayloadSize, txBatch, rxBatch, w.loss)
	if err != nil {
		return out, err
	}
	out["_tx_ns_per_pkt"], out["_rx_ns_per_pkt"] = tx, rx
	out["link.ns_per_pkt"] = tx + rx
	return out, nil
}
