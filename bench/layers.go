package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"fecperf"
	"fecperf/internal/codes"
	"fecperf/internal/core"
	"fecperf/internal/gf256"
	"fecperf/internal/sched"
	"fecperf/internal/session"
	"fecperf/internal/symbol"
	"fecperf/internal/wire"
)

// train describes a chunk train well enough to replay it: the exact
// chunk geometry of a workload and, when a link recorded it, the order
// in which each chunk's datagrams reached the receiver.
type train struct {
	in        *input
	codec     fecperf.CodecSpec
	payload   int
	scheduler string
	rounds    int
	base      uint32
	arrivals  *arrivalLog // nil: lossless and in order, so arrival order = send order
}

// replay feeds the train's first chunks, on one goroutine, through each
// layer's public functions and times them. It returns per-layer metric
// values; keys starting with "_" are inputs of the budget only.
func (t train) replay() (map[string]float64, error) {
	out := map[string]float64{}
	family, err := t.codec.WireFamily()
	if err != nil {
		return nil, err
	}
	scheduler, err := sched.ByName(t.scheduler)
	if err != nil {
		return nil, err
	}
	byChunk := map[int][]int{}
	if t.arrivals != nil {
		for _, e := range t.arrivals.ids {
			c := int(e >> 32)
			byChunk[c] = append(byChunk[c], int(uint32(e)))
		}
	}
	n := t.in.chunks
	if n > sampleChunks {
		n = sampleChunks
	}
	var (
		codesEnc, sessEnc, codesDec, sessIngest []float64 // ns per chunk
		drawNS, walkNS, frameNS, wireNS         []float64 // ns per call / per packet
		parityNeeded                            int
	)
	rng := rand.New(&core.SplitMixSource{})
	var frames, scratch []byte
	codecs := map[int]core.Codec{} // by k; built once, like the session's codec cache
	for c := 0; c < n; c++ {
		data := t.in.bytesOf(c)
		id := session.TrainChunkID(t.base, c)
		cfg := session.SenderConfig{ObjectID: id, Family: family, Ratio: t.codec.Ratio, PayloadSize: t.payload, Seed: t.codec.Seed}

		// session: the whole encode a caster pays per chunk ...
		var obj *session.Object
		ns, err := best(func() (err error) {
			if obj != nil {
				obj.Close()
			}
			obj, err = session.EncodeObject(data, cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		sessEnc = append(sessEnc, ns)
		k, total := obj.K(), obj.N()

		// ... and the codec's share of it, on symbols cut the same way.
		codec := codecs[k]
		if codec == nil {
			codec, err = codes.ByName(fecperf.CodecSpec{Family: t.codec.Family, K: k, Ratio: t.codec.Ratio, Seed: t.codec.Seed}.Name())
			if err != nil {
				return nil, err
			}
			codecs[k] = codec
		}
		if need := k * t.payload; cap(scratch) < need {
			scratch = make([]byte, need)
		}
		copy(scratch[:k*t.payload], data)
		src := make([][]byte, k)
		for i := range src {
			src[i] = scratch[i*t.payload : (i+1)*t.payload]
		}
		ns, err = best(func() error {
			parity, err := codec.Encode(src)
			symbol.PutAll(parity)
			return err
		})
		if err != nil {
			return nil, err
		}
		codesEnc = append(codesEnc, ns)

		// sched: one draw per object-round, one cursor step per packet.
		rng.Seed(int64(c))
		t0 := time.Now()
		schedule := scheduler.Schedule(obj.Layout(), rng)
		drawNS = append(drawNS, float64(time.Since(t0).Nanoseconds()))
		order := make([]int, 0, total)
		cur := schedule.Cursor()
		t0 = time.Now()
		for {
			pkt, ok := cur.Next()
			if !ok {
				break
			}
			order = append(order, pkt)
		}
		walkNS = append(walkNS, float64(time.Since(t0).Nanoseconds())/float64(len(order)))

		// session framing: every scheduled packet into a reused buffer.
		size := wire.HeaderLen + t.payload
		if need := total * size; cap(frames) < need {
			frames = make([]byte, need)
		}
		ns, err = best(func() error {
			for _, pkt := range order {
				if _, err := obj.AppendDatagram(pkt, frames[pkt*size:pkt*size]); err != nil {
					return err
				}
			}
			return nil
		})
		obj.Close()
		if err != nil {
			return nil, err
		}
		frameNS = append(frameNS, ns/float64(len(order)))

		arrived := byChunk[c]
		if t.arrivals == nil {
			arrived = order
		}
		if len(arrived) == 0 {
			continue
		}

		// wire: parse every arrived datagram.
		pkts := make([]wire.Packet, len(arrived))
		ns, err = best(func() error {
			for i, pkt := range arrived {
				if err := wire.DecodeTo(&pkts[i], frames[pkt*size:(pkt+1)*size]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		wireNS = append(wireNS, ns/float64(len(arrived)))

		// session: ingest in arrival order up to the completing packet.
		used := 0
		sessNS, err := best(func() error {
			rx := session.NewReceiver()
			defer rx.Forget(id)
			for i := range pkts {
				res, err := rx.IngestPacketEx(&pkts[i])
				if err != nil || res.Complete {
					used = i + 1
					return err
				}
			}
			return fmt.Errorf("replay: chunk %d did not decode from its %d recorded datagrams", c, len(pkts))
		})
		if err != nil {
			return nil, err
		}
		sources := 0
		for _, pkt := range arrived[:used] {
			if pkt < k {
				sources++
			}
		}
		if sources < k {
			parityNeeded++
		}

		// codes: the same packets straight into the codec's decoder.
		decNS, err := best(func() error {
			dec, err := codec.NewDecoder(t.payload)
			if err != nil {
				return err
			}
			defer dec.Close()
			for i := range pkts[:used] {
				if dec.ReceivePayload(int(pkts[i].PacketID), pkts[i].Payload) {
					break
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		codesDec = append(codesDec, decNS)
		sessIngest = append(sessIngest, math.Max(0, sessNS-decNS)/float64(used))
	}

	chunkMB := float64(t.in.chunk) / 1e6
	out["codes.encode_us_per_chunk"] = median(codesEnc) / 1e3
	out["codes.encode_mb_s"] = ratio(chunkMB, median(codesEnc)/1e9)
	out["session.encode_us_per_chunk"] = median(sessEnc) / 1e3
	out["sched.draw_ns"] = median(drawNS)
	out["sched.walk_ns_per_pkt"] = median(walkNS)
	out["session.frame_ns_per_pkt"] = median(frameNS)
	if len(codesDec) > 0 {
		out["codes.decode_us_per_chunk"] = median(codesDec) / 1e3
		out["codes.decode_mb_s"] = ratio(chunkMB, median(codesDec)/1e9)
		out["session.ingest_ns_per_pkt"] = median(sessIngest)
		out["wire.decode_ns_per_pkt"] = median(wireNS)
		out["codes.decodes"] = math.Round(float64(parityNeeded) / float64(len(codesDec)) * float64(t.in.chunks))
	}
	out["_chunks"] = float64(t.in.chunks)
	out["_rounds"] = float64(t.rounds)
	out["gf256.addmul4_mb_s"], out["gf256.xor_mb_s"] = gfKernels(t.payload)
	return out, nil
}

// best runs fn three times and returns the shortest run in nanoseconds:
// the work is deterministic, so what varies between runs is the host,
// and the host only ever adds time.
func best(fn func() error) (float64, error) {
	least := math.Inf(1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		least = math.Min(least, float64(time.Since(t0).Nanoseconds()))
	}
	return least, nil
}

// perCall times fn in batches until at least 20 ms have been measured
// and returns the nanoseconds one call took.
func perCall(batch int, fn func()) float64 {
	var calls int
	var spent time.Duration
	for spent < 20*time.Millisecond {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		spent += time.Since(t0)
		calls += batch
	}
	return float64(spent.Nanoseconds()) / float64(calls)
}

// gfKernels measures the two field kernels on symbol-sized buffers: the
// ceiling under the codes.* figures. MB/s counts source bytes read.
func gfKernels(symLen int) (addmul4, xor float64) {
	buf := make([]byte, 5*symLen)
	for i := range buf {
		buf[i] = byte(i*7 + 1)
	}
	d0, d1, d2, d3, src := buf[:symLen], buf[symLen:2*symLen], buf[2*symLen:3*symLen], buf[3*symLen:4*symLen], buf[4*symLen:]
	ns := perCall(1024, func() { gf256.AddMul4(d0, d1, d2, d3, src, 3, 7, 29, 113) })
	addmul4 = float64(symLen) / 1e6 / (ns / 1e9)
	ns = perCall(1024, func() { gf256.Xor(d0, src) })
	xor = float64(symLen) / 1e6 / (ns / 1e9)
	return addmul4, xor
}

// linkCost pushes datagrams through an uncontended link on one
// goroutine, with the workload's write and read batch sizes, and
// returns the nanoseconds the link itself costs per datagram on each
// side.
func linkCost(datagram, txBatch, rxBatch int, lossSpec string) (txNS, rxNS float64, err error) {
	l, err := newLink(lossSpec, 1, math.MaxUint32)
	if err != nil {
		return 0, 0, err
	}
	if txBatch < 1 {
		txBatch = 1
	}
	d := make([]byte, datagram)
	batch := make([]wire.Datagram, txBatch)
	for i := range batch {
		batch[i] = d
	}
	backing := make([]byte, rxBatch*linkMTU)
	bufs := make([]wire.Datagram, rxBatch)
	tx, rx := linkTx{l}, linkRx{l}
	var txSpent, rxSpent time.Duration
	var moved int
	for txSpent+rxSpent < 40*time.Millisecond {
		queued := 0
		t0 := time.Now()
		for queued+txBatch <= linkDepth/2 {
			if txBatch == 1 {
				err = tx.Send(d)
			} else {
				_, err = tx.WriteBatch(batch)
			}
			if err != nil {
				return 0, 0, err
			}
			queued += txBatch
		}
		txSpent += time.Since(t0)
		moved += queued
		t0 = time.Now()
		for l.n > 0 { // single goroutine: no lock needed to look
			for i := range bufs {
				bufs[i] = backing[i*linkMTU : (i+1)*linkMTU]
			}
			if _, err := rx.ReadBatch(bufs); err != nil {
				return 0, 0, err
			}
		}
		rxSpent += time.Since(t0)
	}
	st := l.snapshot()
	return float64(txSpent.Nanoseconds()) / float64(moved), float64(rxSpent.Nanoseconds()) / float64(st.RxDatagrams), nil
}

// pacerTakeNS is the cost of one admission from a shared pacer that
// never has to wait.
func pacerTakeNS(batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	share := fecperf.NewSharedPacer(1e12, 1<<30).AddShare(1)
	defer share.Close()
	ctx := context.Background()
	return perCall(256, func() { _ = share.Take(ctx, batch) }) // an unlimited pacer's Take cannot fail
}

// The layers each side's busy time is split into, in print order.
var (
	senderLayers   = []string{"codes-encode", "session", "sched", "frame", "link"}
	receiverLayers = []string{"wire", "session-ingest", "codes-decode", "sink", "link"}
)

// deriveBudget turns the traced repetitions' outside observations and
// the replay's per-operation costs into the "where the time goes"
// shares: replayed cost × operation count ÷ measured busy time, per
// side. What the replay cannot attribute is the residual; coverage is
// the attributed part.
func deriveBudget(v map[string]float64) {
	v["budget.sender_busy_frac"] = ratio(v["transport.caster.busy_s"], v["transport.caster.run_s"])
	v["budget.receiver_busy_frac"] = ratio(v["transport.collector.busy_s"], v["transport.collector.run_s"])
	chunks, sent := v["_chunks"], v["link.tx_datagrams"]
	if busy := v["transport.caster.busy_s"]; busy > 0 {
		shares := map[string]float64{
			"codes-encode": v["codes.encode_us_per_chunk"] * chunks / 1e6,
			"session":      math.Max(0, v["session.encode_us_per_chunk"]-v["codes.encode_us_per_chunk"]) * chunks / 1e6,
			"sched":        (v["sched.draw_ns"]*chunks*v["_rounds"] + v["sched.walk_ns_per_pkt"]*sent) / 1e9,
			"frame":        v["session.frame_ns_per_pkt"] * sent / 1e9,
			"link":         v["_tx_ns_per_pkt"] * sent / 1e9,
		}
		var sum float64
		for name, s := range shares {
			v["budget.sender."+name+"_share"] = s / busy
			sum += s / busy
		}
		v["budget.sender.residual_share"] = 1 - sum
		v["budget.sender_coverage"] = sum
	}
	if busy := v["transport.collector.busy_s"]; busy > 0 {
		seen := v["transport.receiver.pkts_seen"]
		shares := map[string]float64{
			"wire":           v["wire.decode_ns_per_pkt"] * seen / 1e9,
			"session-ingest": v["session.ingest_ns_per_pkt"] * v["transport.receiver.pkts_ingested"] / 1e9,
			"codes-decode":   v["codes.decode_us_per_chunk"] * chunks / 1e6,
			"sink":           v["sink.write_s"],
			"link":           v["_rx_ns_per_pkt"] * seen / 1e9,
		}
		var sum float64
		for name, s := range shares {
			v["budget.receiver."+name+"_share"] = s / busy
			sum += s / busy
		}
		v["budget.receiver.residual_share"] = 1 - sum
		v["budget.receiver_coverage"] = sum
		v["transport.receiver.residual_ns_per_pkt"] = ratio((1-sum)*busy*1e9, seen)
	}
}

// printBudget renders the "where the time goes" table of one traced
// workload: each side's busy share of its run and the layers' shares of
// that busy time.
func printBudget(w io.Writer, r workloadResult) {
	get := func(name string) float64 { return r.PerLayer[name].Value }
	if get("budget.sender_coverage") == 0 && get("budget.receiver_coverage") == 0 {
		return
	}
	fmt.Fprintf(w, "  -- where the time goes (%s)\n", r.Name)
	side := func(label, prefix string, layers []string, busyFrac, coverage float64) {
		if coverage == 0 {
			fmt.Fprintf(w, "  %-9s not observable from outside on this workload\n", label)
			return
		}
		fmt.Fprintf(w, "  %-9s busy %5.1f%% of its run; of that busy time:", label, busyFrac*100)
		for _, l := range layers {
			fmt.Fprintf(w, " %s %.1f%%", l, get(prefix+l+"_share")*100)
		}
		fmt.Fprintf(w, " residual %.1f%%", get(prefix+"residual_share")*100)
		fmt.Fprintln(w)
		if coverage < 0.8 || coverage > 1.2 {
			fmt.Fprintf(w, "  %-9s coverage %.2f: the replay accounts for %.0f%% of the busy time; the rest is not a layer's own work "+
				"(goroutine scheduling and wake-ups, garbage collection, lock hand-over, cache misses a one-goroutine replay does not have)\n",
				"", coverage, coverage*100)
		}
	}
	side("sender", "budget.sender.", senderLayers, get("budget.sender_busy_frac"), get("budget.sender_coverage"))
	side("receiver", "budget.receiver.", receiverLayers, get("budget.receiver_busy_frac"), get("budget.receiver_coverage"))
}
