package transport

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"fecperf/internal/channel"
	"fecperf/internal/codes"
	"fecperf/internal/core"
	"fecperf/internal/obs"
	"fecperf/internal/session"
	"fecperf/internal/wire"
)

// --- batch Conn contract over real UDP sockets ---

func udpPair(t *testing.T) (rx, tx Conn) {
	t.Helper()
	rx, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	t.Cleanup(func() { rx.Close() })
	tx, err = DialUDP(rx.LocalAddr())
	if err != nil {
		t.Fatalf("DialUDP: %v", err)
	}
	t.Cleanup(func() { tx.Close() })
	return rx, tx
}

// The read side of the contract — round trip, GSO re-segmentation,
// truncation, deadline, and what a GRO socket adds — is in
// udp_read_test.go, run over both read paths.

// TestUDPWriteBatchICMPSwallowed writes batches at a port nothing
// listens on: the kernel's async ICMP feedback (connection refused)
// must be swallowed exactly as the one-datagram write swallows it — a
// broadcast is feedback-free.
func TestUDPWriteBatchICMPSwallowed(t *testing.T) {
	probe, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.LocalAddr()
	probe.Close() // the port is now (very likely) dead
	tx, err := DialUDP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	batch := make([]wire.Datagram, 20)
	for i := range batch {
		batch[i] = bytes.Repeat([]byte{1}, 128)
	}
	// The first write provokes the ICMP error; later ones surface it.
	for round := 0; round < 5; round++ {
		if n, err := tx.WriteBatch(batch); err != nil || n != len(batch) {
			t.Fatalf("round %d: WriteBatch = %d, %v; want %d, nil", round, n, err, len(batch))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- loopback: delivery depends on the datagram order, not the grouping ---

// TestLoopbackBatchScalarEquivalence drives the same datagram sequence
// through a loopback receiver several ways — WriteBatch of 1, 7 and 64
// datagrams and in ragged chunks (all behind the chain channel.Spec.New
// builds, which Receiver steps in 64-wide masks), and of 1 behind the
// equivalent scalar Gilbert chain — and requires identical delivery: the
// same datagrams erased, the same ones dropped by the (deliberately
// short) queue, the same order through it.
func TestLoopbackBatchScalarEquivalence(t *testing.T) {
	const (
		seed  = 421
		p, q  = 0.2, 0.4
		total = 500
		queue = 300 // below the ~2/3 of total that survive: the tail overflows
	)
	payload := func(i int) []byte { return []byte{byte(i >> 8), byte(i), 0xEE} }
	stepperRx := func(hub *Loopback) Conn {
		chain := channel.GilbertChannel(p, q).New(seed)
		if _, ok := chain.(*channel.Chain); !ok {
			t.Fatalf("a gilbert channel is a %T, not the batch-stepped chain", chain)
		}
		return hub.Receiver(chain, queue)
	}
	// The scalar Gilbert chain over the same splitmix64 stream — the
	// golden reference the stepper is documented to reproduce bit for bit.
	chainRx := func(hub *Loopback) Conn {
		src := &core.SplitMixSource{}
		src.Seed(seed)
		return hub.Receiver(channel.NewGilbert(p, q, rand.New(src)), queue)
	}
	// writeSizes returns a writer flushing batches of the cycling sizes.
	writeSizes := func(sizes ...int) func(Conn, int) int {
		return func(tx Conn, i int) int {
			n := sizes[i%len(sizes)]
			if i+n > total {
				n = total - i
			}
			batch := make([]wire.Datagram, n)
			for j := range batch {
				batch[j] = payload(i + j)
			}
			if w, err := tx.WriteBatch(batch); w != n || err != nil {
				t.Fatalf("WriteBatch = %d, %v", w, err)
			}
			return n
		}
	}

	type delivery struct {
		got             []string
		erased, dropped uint64
	}
	run := func(attach func(*Loopback) Conn, write func(tx Conn, i int) int) delivery {
		hub := NewLoopback()
		defer hub.Close()
		rx := attach(hub)
		tx := hub.Sender()
		for i := 0; i < total; {
			i += write(tx, i)
		}
		rx.SetReadDeadline(time.Now().Add(100 * time.Millisecond)) //nolint:errcheck
		lc := rx.(*loopConn)
		d := delivery{erased: lc.Erased(), dropped: lc.Dropped()}
		buf := make([]byte, 16)
		for {
			n, err := rx.Recv(buf)
			if err != nil {
				return d
			}
			d.got = append(d.got, fmt.Sprintf("%x", buf[:n]))
		}
	}

	want := run(stepperRx, writeSizes(1))
	if want.erased == 0 || want.dropped == 0 {
		t.Fatalf("%d erasures, %d queue drops across %d sends — test is vacuous", want.erased, want.dropped, total)
	}
	for _, tc := range []struct {
		name   string
		attach func(*Loopback) Conn
		write  func(Conn, int) int
	}{
		{"7-datagram WriteBatch", stepperRx, writeSizes(7)},
		{"64-datagram WriteBatch", stepperRx, writeSizes(64)},
		// Never a multiple of 64, so StepMask widths vary across and
		// within calls.
		{"ragged WriteBatch", stepperRx, writeSizes(7, 64, 13, 1, 100)},
		{"scalar chain", chainRx, writeSizes(1)},
	} {
		got := run(tc.attach, tc.write)
		if got.erased != want.erased || got.dropped != want.dropped {
			t.Fatalf("%s: %d erased, %d dropped; one per batch %d, %d", tc.name, got.erased, got.dropped, want.erased, want.dropped)
		}
		if len(got.got) != len(want.got) {
			t.Fatalf("%s delivered %d datagrams, one per batch %d", tc.name, len(got.got), len(want.got))
		}
		for i := range got.got {
			if got.got[i] != want.got[i] {
				t.Fatalf("%s diverges at delivery %d: %s vs %s", tc.name, i, got.got[i], want.got[i])
			}
		}
	}
}

// TestLoopbackReadBatchDrain checks the loopback ReadBatch blocks for
// the first datagram and drains the queued rest without blocking.
func TestLoopbackReadBatchDrain(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	rx := hub.Receiver(nil, 64)
	tx := hub.Sender()
	batch := make([]wire.Datagram, 10)
	for i := range batch {
		batch[i] = []byte{byte(i)}
	}
	if _, err := tx.WriteBatch(batch); err != nil {
		t.Fatal(err)
	}
	bufs := make([]wire.Datagram, 16)
	for i := range bufs {
		bufs[i] = make([]byte, 8)
	}
	n, err := rx.ReadBatch(bufs)
	if err != nil || n != 10 {
		t.Fatalf("ReadBatch = %d, %v; want 10, nil", n, err)
	}
	for i := 0; i < n; i++ {
		if len(bufs[i]) != 1 || bufs[i][0] != byte(i) {
			t.Fatalf("datagram %d = %v", i, bufs[i])
		}
	}
}

// --- pacer: every debit size converges to the same long-run rate ---

func TestPacerBatchConvergence(t *testing.T) {
	const (
		rate   = 50_000.0
		burst  = 32
		tokens = 5_000
	)
	ctx := context.Background()
	elapse := func(step int) time.Duration {
		p := NewSharedPacer(rate, burst).AddShare(1)
		defer p.Close()
		start := time.Now()
		for taken := 0; taken < tokens; taken += step {
			if err := p.Take(ctx, step); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	// The start-up burst is free; the rest must be admitted at ~rate
	// whatever the debit size.
	ideal := time.Duration(float64(tokens-burst) / rate * float64(time.Second))
	for name, d := range map[string]time.Duration{"single": elapse(1), "batched": elapse(16)} {
		if d < ideal*7/10 {
			t.Errorf("%s pacing admitted %d tokens in %v — faster than the configured rate (ideal %v)", name, tokens, d, ideal)
		}
		if d > ideal*3 {
			t.Errorf("%s pacing took %v for %d tokens — far above the configured rate (ideal %v)", name, d, tokens, ideal)
		}
	}
	// Take(n) with n above the burst must not deadlock and must still
	// average the configured rate via debt accounting.
	p := NewSharedPacer(rate, burst).AddShare(1)
	defer p.Close()
	start := time.Now()
	const bigBatches = 20
	for i := 0; i < bigBatches; i++ {
		if err := p.Take(ctx, 100); err != nil { // 100 > burst 32
			t.Fatal(err)
		}
	}
	d := time.Since(start)
	// The first over-burst batch may ride the start-up pool whole.
	idealBig := time.Duration(float64((bigBatches-1)*100-burst) / rate * float64(time.Second))
	if d < idealBig*7/10 {
		t.Errorf("over-burst batches admitted in %v, ideal %v — debt accounting broken", d, idealBig)
	}
}

// --- sender: the carousel is byte-identical at every batch size ---

func TestSenderBatchedScalarIdenticalCarousel(t *testing.T) {
	objA := encodeTestObject(t, testFile(t, 32<<10, 1), 1, wire.CodeLDGMStaircase, 2.0, 512)
	objB := encodeTestObject(t, testFile(t, 16<<10, 2), 2, wire.CodeRSE, 1.5, 512)
	// Section-6 truncation: only 21 of this object's packets go out per round.
	objC, err := session.EncodeObject(testFile(t, 8<<10, 3), session.SenderConfig{
		ObjectID: 3, Family: wire.CodeLDGMStaircase, Ratio: 2.0, PayloadSize: 512, Seed: 3, NSent: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer objA.Close()
	defer objB.Close()
	defer objC.Close()
	run := func(cfg SenderConfig) (*captureConn, SenderStats) {
		t.Helper()
		conn := &captureConn{}
		s := NewSender(conn, cfg)
		for _, o := range []*session.Object{objA, objB, objC} {
			if err := s.Add(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return conn, s.Stats()
	}
	sameFrames := func(what string, got, want [][]byte) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d datagrams, want %d", what, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: carousel diverges at datagram %d", what, i)
			}
		}
	}

	cfg := SenderConfig{Rounds: 3, Seed: 9}
	ref, refStats := run(cfg)
	if want := 3 * (objA.N() + objB.N() + 21); len(ref.frames) != want {
		t.Fatalf("reference run sent %d datagrams, want %d (NSent honoured)", len(ref.frames), want)
	}
	resumed := cfg
	resumed.StartRound, resumed.StartPos = 1, 17
	refTail, _ := run(resumed)
	// Mid-round resume: 17 positions into round 1, past C's truncated
	// schedule start but before any object runs dry.
	skip := objA.N() + objB.N() + 21 + 3*17
	sameFrames("resumed reference", refTail.frames, ref.frames[skip:])

	for _, size := range []int{1, 7, 32, 64} { // 7: ragged tail flushes
		cfg.BatchSize, resumed.BatchSize = size, size
		conn, st := run(cfg)
		sameFrames(fmt.Sprintf("batch=%d", size), conn.frames, ref.frames)
		if st.PacketsSent != refStats.PacketsSent || st.BytesSent != refStats.BytesSent || st.Rounds != refStats.Rounds {
			t.Fatalf("batch=%d stats diverge: %+v, reference %+v", size, st, refStats)
		}
		if st.Batches != uint64(conn.batches) {
			t.Fatalf("batch=%d: Batches = %d, conn saw %d writes", size, st.Batches, conn.batches)
		}
		wantBatches := refStats.PacketsSent // one datagram per flush
		if size > 1 {
			perRound := uint64(objA.N() + objB.N() + 21)
			wantBatches = 3 * ((perRound + uint64(size) - 1) / uint64(size))
		}
		if st.Batches != wantBatches {
			t.Fatalf("batch=%d: %d flushes, want %d", size, st.Batches, wantBatches)
		}
		tail, _ := run(resumed)
		sameFrames(fmt.Sprintf("batch=%d resumed", size), tail.frames, refTail.frames)
	}
	if refStats.Batches != refStats.PacketsSent {
		t.Fatalf("batch=0: %d flushes for %d datagrams, want one each", refStats.Batches, refStats.PacketsSent)
	}
}

// TestSenderBatchedRoundAllocCeiling asserts the steady-state round loop
// allocates nothing at any batch size, bare or with the full
// observability surface attached (a registry exposing the sender's
// counters and a tracer whose sampling rejects every object — the live
// configuration of a fleet): across many rounds the amortized allocations
// per round must stay below one (the handful of setup allocations —
// sender, flush scratch, cursors, metric registrations — divided away).
func TestSenderBatchedRoundAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings are meaningless under the race detector")
	}
	objA := encodeTestObject(t, testFile(t, 128<<10, 1), 1, wire.CodeLDGMStaircase, 2.5, 1024)
	objB := encodeTestObject(t, testFile(t, 64<<10, 2), 2, wire.CodeRSE, 1.5, 1024)
	defer objA.Close()
	defer objB.Close()
	const rounds = 64
	instrumented := SenderConfig{
		BatchSize: 32,
		Metrics:   obs.NewRegistry("fecperf"),
		Tracer:    obs.NewTracer(io.Discard, obs.TracerConfig{Sample: 1e-12, Seed: 7}),
	}
	for _, cfg := range []SenderConfig{{BatchSize: 1}, {BatchSize: 32}, instrumented} {
		cfg.Seed, cfg.Rounds = 2, rounds
		conn := &discardConn{}
		allocs := testing.AllocsPerRun(5, func() {
			s := NewSender(conn, cfg)
			if err := s.Add(objA); err != nil {
				t.Fatal(err)
			}
			if err := s.Add(objB); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
		if perRound := allocs / rounds; perRound >= 1 {
			t.Errorf("batch=%d metrics=%v round loop allocates %.2f/round (%.0f total over %d rounds); want amortized 0",
				cfg.BatchSize, cfg.Metrics != nil, perRound, allocs, rounds)
		}
		if conn.batches == 0 {
			t.Fatalf("batch=%d never flushed", cfg.BatchSize)
		}
	}
}

// --- end to end: a lossy cast over batched UDP sockets ---

// gilbertLossConn wraps a real Conn and erases datagrams with a Gilbert
// chain before they reach the socket — live loss injection for the e2e
// test, applied per datagram of each WriteBatch.
type gilbertLossConn struct {
	Conn
	ch core.Channel
}

func (c *gilbertLossConn) WriteBatch(batch []wire.Datagram) (int, error) {
	kept := make([]wire.Datagram, 0, len(batch))
	for _, d := range batch {
		if !c.ch.Lost() {
			kept = append(kept, d)
		}
	}
	if _, err := c.Conn.WriteBatch(kept); err != nil {
		return 0, err
	}
	return len(batch), nil
}

func (c *gilbertLossConn) ReadBatch(bufs []wire.Datagram) (int, error) {
	return c.Conn.ReadBatch(bufs)
}

// TestCastBatchedUDPGilbertEndToEnd casts 500 KiB through Gilbert loss
// over real UDP sockets with the whole batched datapath engaged —
// batched carousel flushes, sendmmsg/GSO where available, recvmmsg
// ingest — and requires the collected stream to hash identically to the
// source.
func TestCastBatchedUDPGilbertEndToEnd(t *testing.T) {
	rxConn, txConn := udpPair(t)
	src := &core.SplitMixSource{}
	src.Seed(77)
	lossy := &gilbertLossConn{Conn: txConn, ch: channel.NewGilbert(0.02, 0.5, rand.New(src))}

	source := testFile(t, 500<<10, 3)
	var sink bytes.Buffer
	col := NewCollector(rxConn, &sink, CollectorConfig{BaseObjectID: 900, ReadBatch: 32})
	colCtx, cancelCol := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelCol()
	colDone := make(chan error, 1)
	go func() { colDone <- col.Run(colCtx) }()

	caster, err := NewCaster(lossy, bytes.NewReader(source), CasterConfig{
		Delivery: Delivery{
			BaseObjectID: 900,
			Codec:        codes.Spec{K: 64, Ratio: 1.8},
			PayloadSize:  1024,
			Rounds:       3,
			BatchSize:    32,
			Seed:         11,
		},
		// Pace below the loopback interface's comfort zone so kernel
		// buffers cannot overflow even on a loaded runner; loss comes
		// from the Gilbert chain, not congestion.
		Rate: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := caster.Run(context.Background()); err != nil {
		t.Fatalf("caster: %v", err)
	}
	if err := <-colDone; err != nil {
		t.Fatalf("collector: %v (stats %+v)", err, col.CollectStats())
	}
	if sha256.Sum256(sink.Bytes()) != sha256.Sum256(source) {
		t.Fatal("collected stream hash differs from source")
	}
	if lossyStats := col.CollectStats().Receiver; lossyStats.PacketsSeen == 0 {
		t.Fatal("collector saw no packets")
	}
}
