package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"fecperf"
	"fecperf/internal/session"
	"fecperf/internal/wire"
)

// udpWorkload is the open-loop workload and the only one that crosses
// the kernel: a broadcast daemon paces two streaming casts (weights
// 1:3, sources in the same proportion) at a fixed aggregate packet rate
// to two localhost sockets, each read by its own Collector. The host's
// loopback interface, not a real link. The CPUs are not saturated, so
// wall time is set by the rate and what can move is CPU, allocation and
// delivery.
type udpWorkload struct {
	casts []*udpCast
}

type udpCast struct {
	name    string
	weight  float64
	sizeMiB int
	in      *input
}

const (
	udpRate      = 100000 // datagrams per second, both casts together
	udpBatch     = 32
	udpK         = 1024
	udpCodec     = "ldgm-staircase(k=1024,ratio=1.5)"
	udpPayload   = 1024
	udpCastSpec  = "name=%s,addr=%s,mode=stream,weight=%g,codec=" + udpCodec + ",sched=tx4,payload=1024,rounds=2,window=4"
	udpCollector = "payload=1024,batch=32"
)

func newUDPWorkload() workload {
	return &udpWorkload{casts: []*udpCast{
		{name: "a", weight: 1, sizeMiB: 8},
		{name: "b", weight: 3, sizeMiB: 24},
	}}
}

func (w *udpWorkload) name() string { return "udp-daemon-paced" }
func (w *udpWorkload) why() string {
	return "the one workload through the kernel (sendmmsg/GSO/recvmmsg), the shared pacer and the daemon; open loop at 100000 pkts/s"
}

func (w *udpWorkload) prepare(seed int64, scale int) error {
	chunk := session.ChunkDataSize(udpK, udpPayload)
	for i, c := range w.casts {
		chunks := c.sizeMiB / scale // 1 MiB of symbols each; full chunks only
		if chunks < 2 {
			chunks = 2
		}
		c.in = newInput(seed+int64(i), chunks, chunk)
	}
	return nil
}

func (w *udpWorkload) rep(ctx context.Context, tr *tracer) repResult {
	var res repResult
	for _, c := range w.casts {
		res.attempted += c.in.chunks
	}
	fail := func(what string, err error) repResult {
		res.note = what + ": " + err.Error()
		return res
	}

	type receiver struct {
		conn      fecperf.TransportConn
		collector *fecperf.Collector
		src       *source
		snk       *sink
		err       error
		done      time.Time
	}
	rxs := make([]*receiver, len(w.casts))
	for i, c := range w.casts {
		// Bind port 0 and hand the bound address on: no window in which
		// another process could take the port.
		conn, err := fecperf.Listen("127.0.0.1:0")
		if err != nil {
			for _, r := range rxs[:i] {
				r.conn.Close()
			}
			return fail("UDP unavailable, every operation counted as failed", err)
		}
		r := &receiver{conn: conn, src: newSource(c.in), snk: newSink(c.in)}
		r.src.tr, r.snk.tr = tr, tr
		if r.collector, err = fecperf.NewCollector(conn, r.snk, fecperf.WithSpec(udpCollector)); err != nil {
			return fail("collector", err)
		}
		rxs[i] = r
	}
	defer func() {
		for _, r := range rxs {
			r.conn.Close()
		}
	}()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	finished := make(chan int, len(rxs))
	for i, r := range rxs {
		go func() {
			r.err = r.collector.Run(ctx)
			r.done = time.Now()
			finished <- i
		}()
	}

	m := startMeter(tr != nil)
	d := fecperf.NewBroadcastDaemon(fecperf.BroadcastDaemonConfig{Rate: udpRate, BatchSize: udpBatch})
	defer d.Close()
	t0 := time.Now()
	for i, c := range w.casts {
		cs, err := fecperf.ParseCastSpec(fmt.Sprintf(udpCastSpec, c.name, rxs[i].conn.LocalAddr(), c.weight))
		if err != nil {
			cancel()
			return fail("cast spec", err)
		}
		cs.Source = rxs[i].src
		if err := d.AddCast(cs); err != nil {
			cancel()
			return fail("daemon", err)
		}
	}

	for range rxs {
		<-finished
	}
	wallEnd := t0
	for _, r := range rxs {
		if r.done.After(wallEnd) {
			wallEnd = r.done
		}
	}
	// The casts still owe the second round of their last window group.
	// Nobody wants it, but reading it off the sockets is what tells a
	// datagram the kernel dropped from one that was merely late.
	stop := make(chan struct{})
	unread := make(chan float64, len(rxs))
	for _, r := range rxs {
		go func() { unread <- drain(r.conn, stop) }()
	}
	sent, pacerWait, castEnds := w.waitCasts(ctx, d)
	close(stop)
	var late float64
	for range rxs {
		late += <-unread
	}
	use := m.end()
	castsEnd := t0
	var castRuns []float64
	for i, end := range castEnds {
		if end.After(castsEnd) {
			castsEnd = end
		}
		castRuns = append(castRuns, end.Sub(t0).Seconds())
		tr.add("daemon.cast."+w.casts[i].name, -1, t0, end)
	}
	tr.add("transport.collector.run", -1, t0, wallEnd)

	var bytes, ingested, seen float64
	sumK := 0
	lay := map[string]float64{}
	for i, r := range rxs {
		c := w.casts[i]
		ok := r.snk.verified
		if r.err != nil && res.note == "" {
			res.note = fmt.Sprintf("collector %s: %v", c.name, r.err)
		}
		res.verified += ok
		bytes += float64(ok * c.in.chunk)
		st := r.collector.CollectStats()
		ingested += float64(st.Receiver.PacketsIngested)
		seen += float64(st.Receiver.PacketsSeen)
		sumK += c.in.chunks*udpK + 1 // full chunks, and the manifest's single symbol
		res.latenciesMS = append(res.latenciesMS, latenciesMS(r.src, r.snk)...)
		receiverValues(lay, st.Receiver)
		lay["source.read_s"] += float64(r.src.readNS) / 1e9
		lay["sink.write_s"] += float64(r.snk.writeNS) / 1e9
		lay["transport.collector.run_s"] += r.done.Sub(t0).Seconds()
	}
	if res.verified < res.attempted && res.note == "" {
		res.note = fmt.Sprintf("%d of %d chunks missing or wrong", res.attempted-res.verified, res.attempted)
	}
	wall := wallEnd.Sub(t0).Seconds()
	res.e2e = perByteMetrics(bytes, wall, use)
	res.e2e["chunk_latency_p50_ms"] = median(res.latenciesMS)
	res.e2e["inefficiency_ratio"] = ingested / float64(sumK)
	res.e2e["delivered_ratio"] = float64(res.verified) / float64(res.attempted)
	res.e2e["trials_per_s"] = float64(res.verified) / wall
	res.e2e["events_per_s"] = seen / wall

	castsRun := castsEnd.Sub(t0).Seconds()
	lay["link.tx_datagrams"] = sent
	for _, run := range castRuns {
		lay["transport.caster.run_s"] += run
	}
	lay["transport.caster.pacer_wait_s"] = pacerWait
	lay["transport.caster.busy_s"] = lay["transport.caster.run_s"] - pacerWait - lay["source.read_s"]
	lay["daemon.cast_pacer_wait_s"] = pacerWait
	// The sources are in the ratio of the weights, so a pacer that splits
	// the rate exactly by weight ends both casts together.
	lay["daemon.share_dev_pct"] = ratio(math.Abs(castRuns[0]-castRuns[1]), (castRuns[0]+castRuns[1])/2) * 100
	lay["transport.pacer.rate_ratio"] = ratio(sent/castsRun, udpRate)
	lay["transport.udp.drop_ratio"] = math.Max(0, 1-ratio(seen+late, sent))
	use.layerValues(lay)
	res.layer = lay
	return res
}

// waitCasts polls the daemon until every cast has left the running
// state and returns the datagrams they sent, the time they spent in the
// pacer, and when each one ended (in w.casts order).
func (w *udpWorkload) waitCasts(ctx context.Context, d *fecperf.BroadcastDaemon) (sent, pacerWaitS float64, ends []time.Time) {
	ends = make([]time.Time, len(w.casts))
	for {
		running := false
		sent, pacerWaitS = 0, 0
		now := time.Now()
		for _, st := range d.Casts() {
			sent += float64(st.Packets)
			pacerWaitS += float64(st.PacerWaitNS) / 1e9
			for i, c := range w.casts {
				if c.name != st.Name {
					continue
				}
				if st.State == fecperf.CastStateRunning && ctx.Err() == nil {
					running = true
				} else if ends[i].IsZero() {
					ends[i] = now
				}
			}
		}
		if !running {
			return sent, pacerWaitS, ends
		}
		time.Sleep(time.Millisecond)
	}
}

// drain reads and counts datagrams until stop is closed and the socket
// has been quiet for one read deadline.
func drain(conn fecperf.TransportConn, stop <-chan struct{}) (n float64) {
	buf := make([]byte, linkMTU)
	for {
		if err := conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
			return n
		}
		if _, err := conn.Recv(buf); err != nil {
			select {
			case <-stop:
				return n
			default:
				if errors.Is(err, os.ErrDeadlineExceeded) {
					continue
				}
				return n
			}
		}
		n++
	}
}

// batchConn is the batch half of a datagram endpoint, asserted on what
// Dial and Listen return.
type batchConn interface {
	WriteBatch([]wire.Datagram) (int, error)
	ReadBatch([]wire.Datagram) (int, error)
}

// udpCost measures one localhost socket pair directly: nanoseconds per
// datagram for batched writes and for batched reads, and whether the
// writes went out segmented (GSO).
func udpCost(datagram, batch int) (writeNS, readNS, gso float64, err error) {
	rx, err := fecperf.Listen("127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, err
	}
	defer rx.Close()
	tx, err := fecperf.Dial(rx.LocalAddr())
	if err != nil {
		return 0, 0, 0, err
	}
	defer tx.Close()
	if g, ok := tx.(interface{ GSOEnabled() bool }); ok && g.GSOEnabled() {
		gso = 1
	}
	btx, ok1 := tx.(batchConn)
	brx, ok2 := rx.(batchConn)
	if !ok1 || !ok2 {
		return 0, 0, gso, fmt.Errorf("udp endpoints have no batch methods")
	}
	d := make([]byte, datagram)
	out := make([]wire.Datagram, batch)
	for i := range out {
		out[i] = d
	}
	backing := make([]byte, batch*linkMTU)
	in := make([]wire.Datagram, batch)
	var wrote, read int
	var wSpent, rSpent time.Duration
	for wSpent+rSpent < 60*time.Millisecond {
		t0 := time.Now()
		n, err := btx.WriteBatch(out)
		wSpent += time.Since(t0)
		if err != nil {
			return 0, 0, gso, err
		}
		wrote += n
		// Loopback delivery is synchronous: what was written is queued on
		// the receiving socket. The deadline only guards against a drop.
		if err := rx.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			return 0, 0, gso, err
		}
		for got := 0; got < n; {
			for i := range in {
				in[i] = backing[i*linkMTU : (i+1)*linkMTU]
			}
			t0 = time.Now()
			m, err := brx.ReadBatch(in)
			rSpent += time.Since(t0)
			if err != nil {
				return 0, 0, gso, err
			}
			got += m
			read += m
		}
	}
	return float64(wSpent.Nanoseconds()) / float64(wrote), float64(rSpent.Nanoseconds()) / float64(read), gso, nil
}

func (w *udpWorkload) layers(repResult) (map[string]float64, error) {
	big := w.casts[1]
	codec, err := fecperf.ParseCodecSpec(udpCodec)
	if err != nil {
		return nil, err
	}
	out, err := train{in: big.in, codec: codec, payload: udpPayload, scheduler: "tx4", rounds: 2}.replay()
	if err != nil {
		return nil, err
	}
	chunks := 0
	for _, c := range w.casts {
		chunks += c.in.chunks
	}
	out["_chunks"] = float64(chunks)
	out["codes.decodes"] = math.Round(out["codes.decodes"] * float64(chunks) / float64(big.in.chunks))
	wr, rd, gso, err := udpCost(wire.HeaderLen+udpPayload, udpBatch)
	if err != nil {
		return out, err
	}
	out["transport.udp.write_ns_per_pkt"], out["transport.udp.read_ns_per_pkt"] = wr, rd
	out["transport.udp.gso_enabled"] = gso
	out["_tx_ns_per_pkt"] = wr
	out["transport.pacer.take_ns"] = pacerTakeNS(udpBatch)
	return out, nil
}
