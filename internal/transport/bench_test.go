package transport

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"
	"time"

	"fecperf/internal/channel"
	"fecperf/internal/codes"
	"fecperf/internal/obs"
	"fecperf/internal/session"
	"fecperf/internal/wire"
)

// BenchmarkSenderThroughput measures the carousel's packet rate through
// the loopback with one attached (drained) receiver: header pre-encode,
// per-round scheduling, fan-out and queueing, no pacing.
func BenchmarkSenderThroughput(b *testing.B) {
	hub := NewLoopback()
	defer hub.Close()
	rx := hub.Receiver(nil, 4096)
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		buf := make([]byte, 2048)
		for {
			if _, err := rx.Recv(buf); err != nil {
				return
			}
		}
	}()

	obj := encodeTestObject(b, testFile(b, 256<<10, 1), 1, wire.CodeLDGMStaircase, 2.5, 1024)
	s := NewSender(hub.Sender(), SenderConfig{Seed: 2})
	if err := s.Add(obj); err != nil {
		b.Fatal(err)
	}
	rounds := b.N/obj.N() + 1
	s.cfg.Rounds = rounds

	b.ResetTimer()
	start := time.Now()
	if err := s.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	st := s.Stats()
	b.SetBytes(int64(st.BytesSent / st.PacketsSent)) // avg datagram size
	b.ReportMetric(float64(st.PacketsSent)/elapsed.Seconds(), "pkts/s")
	rx.Close()
	<-drainDone
}

// BenchmarkReceiverDecodeLatency measures time-to-decoded-object at the
// daemon: one lossless round of a 256 KiB LDGM-Staircase object per
// iteration, from first datagram to completed reassembly.
func BenchmarkReceiverDecodeLatency(b *testing.B) {
	file := testFile(b, 256<<10, 3)
	b.SetBytes(int64(len(file)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		hub := NewLoopback()
		obj := encodeTestObject(b, file, uint32(i+1), wire.CodeLDGMStaircase, 2.5, 1024)
		d := NewReceiverDaemon(hub.Receiver(nil, obj.N()+16), ReceiverConfig{})
		ctx, cancel := context.WithCancel(context.Background())
		daemonDone := make(chan struct{})
		go func() { defer close(daemonDone); d.Run(ctx) }() //nolint:errcheck
		s := NewSender(hub.Sender(), SenderConfig{Rounds: 1, Seed: int64(i)})
		if err := s.Add(obj); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		if err := s.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		if _, err := d.WaitObject(context.Background(), uint32(i+1)); err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		cancel()
		<-daemonDone
		hub.Close()
		b.StartTimer()
	}
}

// discardConn swallows datagrams: the sender-round benchmark isolates
// scheduling + lazy encoding from loopback fan-out.
type discardConn struct{ packets, batches int }

func (c *discardConn) WriteBatch(batch []wire.Datagram) (int, error) {
	c.packets += len(batch)
	c.batches++
	return len(batch), nil
}
func (c *discardConn) ReadBatch([]wire.Datagram) (int, error) { return 0, ErrClosed }
func (c *discardConn) Recv([]byte) (int, error)               { return 0, ErrClosed }
func (c *discardConn) SetReadDeadline(time.Time) error        { return nil }
func (c *discardConn) Close() error                           { return nil }
func (c *discardConn) LocalAddr() string                      { return "discard" }

// benchSenderRound measures one full carousel round per op — streaming
// schedule draw, lazy per-packet encode through the shared scratch
// buffer, round-robin interleave — with the Conn cost removed. The
// headline column is allocs/op: the steady-state round loop must
// allocate nothing (schedules are drawn by value, datagrams encoded in
// place), where the old sender allocated a [][]int of schedules every
// round and held every datagram pre-encoded.
func benchSenderRound(b *testing.B, cfg SenderConfig, conn Conn, packets func() int) {
	objA := encodeTestObject(b, testFile(b, 128<<10, 1), 1, wire.CodeLDGMStaircase, 2.5, 1024)
	objB := encodeTestObject(b, testFile(b, 64<<10, 2), 2, wire.CodeRSE, 1.5, 1024)
	defer objA.Close()
	defer objB.Close()
	cfg.Seed = 2
	cfg.Rounds = b.N
	s := NewSender(conn, cfg)
	if err := s.Add(objA); err != nil {
		b.Fatal(err)
	}
	if err := s.Add(objB); err != nil {
		b.Fatal(err)
	}
	perRound := objA.N() + objB.N()
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(packets())/float64(b.N), "pkts/round")
	if packets() != b.N*perRound {
		b.Fatalf("sent %d packets, want %d", packets(), b.N*perRound)
	}
}

func BenchmarkSenderRound(b *testing.B) {
	conn := &discardConn{}
	benchSenderRound(b, SenderConfig{}, conn, func() int { return conn.packets })
}

// BenchmarkSenderRoundBatched is the same carousel round flushed 32
// frame views at a time. The pkts/round and allocs/op columns must match
// the one-datagram round (identical carousel, amortized zero
// allocation).
func BenchmarkSenderRoundBatched(b *testing.B) {
	conn := &discardConn{}
	benchSenderRound(b, SenderConfig{BatchSize: 32}, conn, func() int { return conn.packets })
}

// BenchmarkSenderRoundInstrumented is the same round loop with the full
// observability surface attached: a registry exposing the sender's
// counters and a tracer whose sampling rejects every object (the
// worst-case live configuration — a fleet traces a tiny fraction). The
// per-round delta against BenchmarkSenderRound is the instrumentation
// tax.
func BenchmarkSenderRoundInstrumented(b *testing.B) {
	reg := obs.NewRegistry("fecperf")
	tr := obs.NewTracer(io.Discard, obs.TracerConfig{Sample: 1e-12, Seed: 7})
	conn := &discardConn{}
	benchSenderRound(b, SenderConfig{Metrics: reg, Tracer: tr}, conn, func() int { return conn.packets })
}

// --- Kernel-batched datapath benchmarks ---

// benchUDPPair dials a connected UDP socket at an unread listener on
// the loopback interface. The write benchmarks measure the send-side
// kernel crossing alone: the kernel drops datagrams silently once the
// receive buffer fills, which is exactly the cost profile of a
// multicast sender pushing into the network.
func benchUDPPair(b *testing.B) (tx Conn, done func()) {
	b.Helper()
	rx, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	tx, err = DialUDP(rx.LocalAddr())
	if err != nil {
		rx.Close()
		b.Fatal(err)
	}
	return tx, func() { tx.Close(); rx.Close() }
}

const benchDgramSize = 1024

// BenchmarkUDPWriteScalar is the one-datagram row: one sendto(2) per
// 1 KiB datagram on a connected UDP socket.
func BenchmarkUDPWriteScalar(b *testing.B) {
	tx, done := benchUDPPair(b)
	defer done()
	one := []wire.Datagram{make([]byte, benchDgramSize)}
	b.SetBytes(benchDgramSize)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := tx.WriteBatch(one); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "pkts/s")
}

// BenchmarkUDPWriteBatch pushes the same 1 KiB datagrams 32 at a time
// through WriteBatch — sendmmsg with UDP GSO coalescing the equal-size
// run into superpackets where the kernel supports it. The pkts/s ratio
// against BenchmarkUDPWriteScalar is the headline of the batched
// datapath (≈5.5x with GSO).
func BenchmarkUDPWriteBatch(b *testing.B) {
	tx, done := benchUDPPair(b)
	defer done()
	const batchN = 32
	backing := make([]byte, batchN*benchDgramSize)
	batch := make([]wire.Datagram, batchN)
	for i := range batch {
		batch[i] = backing[i*benchDgramSize : (i+1)*benchDgramSize : (i+1)*benchDgramSize]
	}
	b.SetBytes(batchN * benchDgramSize)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if n, err := tx.WriteBatch(batch); n != batchN || err != nil {
			b.Fatalf("WriteBatch = %d, %v", n, err)
		}
	}
	b.ReportMetric(float64(b.N*batchN)/time.Since(start).Seconds(), "pkts/s")
}

// benchLoopbackDrained builds a loopback hub with one receiver drained
// by a goroutine, so the write benchmarks measure fan-out cost, not
// queue-full drops.
func benchLoopbackDrained(b *testing.B) (tx Conn, done func()) {
	b.Helper()
	hub := NewLoopback()
	rx := hub.Receiver(nil, 4096)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, 2048)
		for {
			if _, err := rx.Recv(buf); err != nil {
				return
			}
		}
	}()
	return hub.Sender(), func() {
		rx.Close()
		<-drained
		hub.Close()
	}
}

// BenchmarkLoopbackWriteScalar is the in-process one-datagram row: a
// WriteBatch of one datagram through the loopback hub's per-receiver
// channel step + copy.
func BenchmarkLoopbackWriteScalar(b *testing.B) {
	tx, done := benchLoopbackDrained(b)
	defer done()
	one := []wire.Datagram{make([]byte, benchDgramSize)}
	b.SetBytes(benchDgramSize)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := tx.WriteBatch(one); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "pkts/s")
}

// BenchmarkLoopbackWriteBatch fans out 32 datagrams per WriteBatch: one
// backing copy for the whole batch and one lock + 64-wide channel mask
// per receiver instead of 32 of each.
func BenchmarkLoopbackWriteBatch(b *testing.B) {
	tx, done := benchLoopbackDrained(b)
	defer done()
	const batchN = 32
	backing := make([]byte, batchN*benchDgramSize)
	batch := make([]wire.Datagram, batchN)
	for i := range batch {
		batch[i] = backing[i*benchDgramSize : (i+1)*benchDgramSize : (i+1)*benchDgramSize]
	}
	b.SetBytes(batchN * benchDgramSize)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if n, err := tx.WriteBatch(batch); n != batchN || err != nil {
			b.Fatalf("WriteBatch = %d, %v", n, err)
		}
	}
	b.ReportMetric(float64(b.N*batchN)/time.Since(start).Seconds(), "pkts/s")
}

// BenchmarkCollectLDGMSmall is the receive path of the cast-ldgm-smallpkt
// workload without the link: a train of eight LDGM-staircase chunks of
// k = 2048 symbols of 128 bytes, cast tx4 in window groups of four,
// recorded once through Gilbert(0.05, 0.5) loss, then replayed into a
// Collector reading 32 datagrams per ReadBatch — parse, header check,
// ingest, peel, solve and the in-order write, per op.
func BenchmarkCollectLDGMSmall(b *testing.B) {
	delivery := Delivery{
		BaseObjectID: 40,
		Codec:        codes.Spec{Family: "ldgm-staircase", K: 2048, Ratio: 1.5},
		PayloadSize:  128,
		Window:       4,
		Rounds:       1,
		BatchSize:    32,
		Seed:         7,
	}
	stream := testFile(b, 8*session.ChunkDataSize(2048, 128), 8)
	capture := &captureConn{}
	src := rand.New(rand.NewSource(9))
	caster, err := NewCaster(&gilbertLossConn{Conn: capture, ch: channel.NewGilbert(0.05, 0.5, src)},
		bytes.NewReader(stream), CasterConfig{Delivery: delivery})
	if err != nil {
		b.Fatal(err)
	}
	if err := caster.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var written countingWriter
		col := NewCollector(&replayConn{datagrams: capture.frames}, &written,
			CollectorConfig{BaseObjectID: delivery.BaseObjectID, ReadBatch: 32})
		if err := col.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		if int(written) != len(stream) {
			b.Fatalf("collected %d of %d bytes", written, len(stream))
		}
	}
}

// countingWriter counts the bytes written to it and keeps none.
type countingWriter int

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}
