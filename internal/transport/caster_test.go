package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"fecperf/internal/channel"
	"fecperf/internal/codes"
	"fecperf/internal/core"
	"fecperf/internal/sched"
	"fecperf/internal/session"
	"fecperf/internal/symbol"
	"fecperf/internal/wire"
)

// castCollect runs a full cast → loopback(ch) → collect of data and
// returns the collected bytes. The loopback queue is sized to hold the
// whole cast, so the only losses are the channel's — deterministic for
// a seeded channel.
func castCollect(t *testing.T, data []byte, ch func() core.Channel,
	casterCfg CasterConfig, collectorCfg CollectorConfig) []byte {
	t.Helper()
	hub := NewLoopback()
	defer hub.Close()

	var impairment core.Channel
	if ch != nil {
		impairment = ch()
	}
	rxConn := hub.Receiver(impairment, 1<<18)

	var out bytes.Buffer
	col := NewCollector(rxConn, &out, collectorCfg)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	var colErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		colErr = col.Run(ctx)
	}()

	caster, err := NewCaster(hub.Sender(), bytes.NewReader(data), casterCfg)
	if err != nil {
		t.Fatalf("NewCaster: %v", err)
	}
	if err := caster.Run(ctx); err != nil {
		t.Fatalf("caster.Run: %v", err)
	}
	wg.Wait()
	if colErr != nil {
		t.Fatalf("collector.Run: %v (progress %+v, stats %+v)", colErr, col.Progress(), col.CollectStats().Receiver)
	}
	return out.Bytes()
}

func TestCastCollectLossless(t *testing.T) {
	data := make([]byte, 1<<20+12345) // deliberately not a chunk multiple
	rand.New(rand.NewSource(1)).Read(data)

	var progress []CastProgress
	got := castCollect(t, data, nil,
		CasterConfig{
			Delivery: Delivery{
				BaseObjectID: 7,
				Codec:        codes.Spec{K: 64, Ratio: 1.5}, PayloadSize: 512,
				Window: 4, Rounds: 2, Seed: 9,
			},
			OnProgress: func(p CastProgress) { progress = append(progress, p) },
		},
		CollectorConfig{BaseObjectID: 7})
	if !bytes.Equal(got, data) {
		t.Fatalf("collected %d bytes differ from cast %d bytes", len(got), len(data))
	}
	if len(progress) == 0 || !progress[len(progress)-1].Done {
		t.Errorf("caster progress missing or not Done: %+v", progress)
	}
	if progress[len(progress)-1].BytesRead != int64(len(data)) {
		t.Errorf("final BytesRead = %d, want %d", progress[len(progress)-1].BytesRead, len(data))
	}
}

func TestCastCollectGilbert(t *testing.T) {
	data := make([]byte, 3<<20)
	rand.New(rand.NewSource(2)).Read(data)

	var colProgress []CollectProgress
	got := castCollect(t, data,
		func() core.Channel {
			return channel.NewGilbert(0.01, 0.5, rand.New(rand.NewSource(42)))
		},
		CasterConfig{Delivery: Delivery{
			BaseObjectID: 100,
			Codec:        codes.Spec{Family: "rse", K: 128, Ratio: 1.5}, PayloadSize: 1024,
			Window: 4, Rounds: 2, Seed: 3,
		}},
		CollectorConfig{
			BaseObjectID: 100,
			OnProgress:   func(p CollectProgress) { colProgress = append(colProgress, p) },
		})
	if !bytes.Equal(got, data) {
		t.Fatalf("collected bytes differ after Gilbert loss")
	}
	if len(colProgress) == 0 {
		t.Fatal("no collector progress callbacks")
	}
	last := colProgress[len(colProgress)-1]
	if last.BytesWritten != int64(len(data)) {
		t.Errorf("final BytesWritten = %d, want %d", last.BytesWritten, len(data))
	}
	// The trailing manifest must have announced the train's true length
	// by the last callback.
	if last.ChunksTotal < 0 || last.ChunksWritten != last.ChunksTotal {
		t.Errorf("final progress %+v does not close the train", last)
	}
}

func TestCastCollectMixedFamilies(t *testing.T) {
	// LDGM chunks still ship a Reed-Solomon manifest: families mix on
	// one train because every datagram is self-describing.
	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(3)).Read(data)
	got := castCollect(t, data, nil,
		CasterConfig{Delivery: Delivery{
			BaseObjectID: 1,
			Codec:        codes.Spec{Family: "ldgm-staircase", K: 512, Ratio: 2.5}, PayloadSize: 1024,
			Window: 2, Rounds: 2, Seed: 5,
		}},
		CollectorConfig{BaseObjectID: 1})
	if !bytes.Equal(got, data) {
		t.Fatal("LDGM-chunk train did not round-trip")
	}
}

func TestCastEmptyStream(t *testing.T) {
	got := castCollect(t, nil, nil,
		CasterConfig{Delivery: Delivery{BaseObjectID: 5, Codec: codes.Spec{K: 16}, PayloadSize: 256, Seed: 1}},
		CollectorConfig{BaseObjectID: 5})
	if len(got) != 0 {
		t.Fatalf("empty stream collected %d bytes", len(got))
	}
}

func TestCasterManifestAndStats(t *testing.T) {
	data := make([]byte, 100000)
	rand.New(rand.NewSource(4)).Read(data)
	hub := NewLoopback()
	defer hub.Close()
	// No receivers: the cast still runs (broadcast to nobody).
	c, err := NewCaster(hub.Sender(), bytes.NewReader(data),
		CasterConfig{Delivery: Delivery{Codec: codes.Spec{K: 32, Ratio: 1.5}, PayloadSize: 512, Window: 2, Rounds: 1, Seed: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Manifest(); ok {
		t.Error("Manifest available before Run")
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	m, ok := c.Manifest()
	if !ok {
		t.Fatal("Manifest unavailable after Run")
	}
	chunkData := session.ChunkDataSize(32, 512)
	wantChunks := (len(data) + chunkData - 1) / chunkData
	if int(m.ChunkCount) != wantChunks || m.TotalSize != uint64(len(data)) {
		t.Errorf("manifest %+v, want %d chunks of %d total bytes", m, wantChunks, len(data))
	}
	st := c.Stats()
	if st.BytesRead != uint64(len(data)) || st.ChunksCast != uint64(wantChunks) || st.PacketsSent == 0 {
		t.Errorf("stats %+v", st)
	}
	if err := c.Run(context.Background()); err == nil {
		t.Error("second Run succeeded")
	}
}

// TestCasterRateSpansWindowGroups pins the cast-wide pacer: every
// window group here (12 packets) fits inside the default 32-packet
// burst, so a bucket refilled per group would never block. One share for
// the whole cast admits the start-up burst and the rest at Rate.
func TestCasterRateSpansWindowGroups(t *testing.T) {
	const (
		k, payload = 8, 64
		chunks     = 10
		rate       = 200.0
		burst      = 32 // the default
	)
	data := make([]byte, chunks*session.ChunkDataSize(k, payload))
	conn := &discardConn{}
	c, err := NewCaster(conn, bytes.NewReader(data),
		CasterConfig{Delivery: Delivery{Codec: codes.Spec{K: k, Ratio: 1.5}, PayloadSize: payload, Window: 1, Rounds: 1, Seed: 5}, Rate: rate})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	st := c.Stats()
	if st.ChunksCast != chunks {
		t.Fatalf("cast %d chunks, want %d", st.ChunksCast, chunks)
	}
	want := time.Duration(float64(st.PacketsSent-burst) / rate * float64(time.Second))
	if elapsed < want {
		t.Errorf("%d packets at %g pkts/s took %v, want ≥ %v — rate not held across groups", st.PacketsSent, rate, elapsed, want)
	}
	if st.PacerWaitNS == 0 {
		t.Error("PacerWaitNS = 0 for a cast that outran its rate")
	}
}

func TestCollectorOutOfOrderBound(t *testing.T) {
	// Erase exactly the first datagram: chunk 0 then completes one
	// interleave position after chunks 1..3, so the collector buffers 3
	// out-of-order chunks. MaxPending 2 must fail, 3 must succeed —
	// deterministically, via a trace channel.
	chunkData := session.ChunkDataSize(16, 256)
	data := make([]byte, 4*chunkData)
	rand.New(rand.NewSource(5)).Read(data)
	trace := func() core.Channel {
		return &channel.Trace{Pattern: []bool{true}, NoWrap: true}
	}
	cfg := CasterConfig{Delivery: Delivery{
		BaseObjectID: 30, Codec: codes.Spec{K: 16, Ratio: 1.5}, PayloadSize: 256,
		Window: 4, Rounds: 1, Seed: 2, Scheduler: sched.TxModel1{},
	}}

	got := castCollect(t, data, trace, cfg, CollectorConfig{BaseObjectID: 30, MaxPending: 3})
	if !bytes.Equal(got, data) {
		t.Fatal("MaxPending=3 collect did not round-trip")
	}

	hub := NewLoopback()
	defer hub.Close()
	rx := hub.Receiver(trace(), 1<<16)
	var out bytes.Buffer
	col := NewCollector(rx, &out, CollectorConfig{BaseObjectID: 30, MaxPending: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- col.Run(ctx) }()
	caster, err := NewCaster(hub.Sender(), bytes.NewReader(data), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := caster.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("MaxPending=2 err = %v, want out-of-order overflow", err)
	}
}

func TestCollectorIgnoresForeignObjects(t *testing.T) {
	// A collector sharing its conn with unrelated traffic — e.g. a
	// whole-object carousel whose IDs sit below the train's base, which
	// wrap mod 2^32 to astronomic chunk indexes — must not let those
	// objects poison the reorder buffer (MaxPending 2 here, three
	// foreign objects) or stall completion.
	hub := NewLoopback()
	defer hub.Close()
	rx := hub.Receiver(nil, 1<<16)
	var out bytes.Buffer
	col := NewCollector(rx, &out, CollectorConfig{BaseObjectID: 7, MaxPending: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- col.Run(ctx) }()

	foreign := NewSender(hub.Sender(), SenderConfig{Rounds: 1, Seed: 3})
	for id := uint32(1); id <= 3; id++ {
		obj, err := session.EncodeObject(bytes.Repeat([]byte{byte(id)}, 100), session.SenderConfig{
			ObjectID: id, Family: wire.CodeRSE, Ratio: 1.5, PayloadSize: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := foreign.Add(obj); err != nil {
			t.Fatal(err)
		}
	}
	if err := foreign.Run(ctx); err != nil {
		t.Fatal(err)
	}
	foreign.Close()

	data := make([]byte, 3*session.ChunkDataSize(16, 256))
	rand.New(rand.NewSource(9)).Read(data)
	caster, err := NewCaster(hub.Sender(), bytes.NewReader(data),
		CasterConfig{Delivery: Delivery{BaseObjectID: 7, Codec: codes.Spec{K: 16, Ratio: 1.5}, PayloadSize: 256, Window: 3, Rounds: 1, Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := caster.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("collector failed amid foreign traffic: %v", err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("collected bytes differ")
	}
}

func TestCollectorWriterError(t *testing.T) {
	data := make([]byte, 200000)
	rand.New(rand.NewSource(6)).Read(data)
	hub := NewLoopback()
	defer hub.Close()
	rx := hub.Receiver(nil, 1<<16)
	col := NewCollector(rx, failWriter{}, CollectorConfig{BaseObjectID: 9})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- col.Run(ctx) }()
	caster, err := NewCaster(hub.Sender(), bytes.NewReader(data),
		CasterConfig{Delivery: Delivery{BaseObjectID: 9, Codec: codes.Spec{K: 32}, PayloadSize: 512, Window: 2, Rounds: 1, Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := caster.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "writing chunk") {
		t.Fatalf("collector err = %v, want write error", err)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

func TestCasterCancel(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Pace the cast slowly so cancellation lands mid-stream.
	c, err := NewCaster(hub.Sender(), neverEndingReader{},
		CasterConfig{Delivery: Delivery{Codec: codes.Spec{K: 16}, PayloadSize: 256, Window: 1, Rounds: 1, Seed: 1}, Rate: 200, Burst: 4})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if err := c.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled cast err = %v, want context.Canceled", err)
	}
}

type neverEndingReader struct{}

func (neverEndingReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(i)
	}
	return len(p), nil
}

func TestNewCasterConfigErrors(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	for _, cfg := range []Delivery{
		{Codec: codes.Spec{K: 1}, PayloadSize: 4}, // no room past the length prefix
		{Codec: codes.Spec{Ratio: 0.5}},           // expansion below 1
		{Codec: codes.Spec{K: -1}},                // negative
		{Window: -2},                              // negative
	} {
		if _, err := NewCaster(hub.Sender(), bytes.NewReader(nil), CasterConfig{Delivery: cfg}); err == nil {
			t.Errorf("NewCaster(%+v) succeeded, want error", cfg)
		}
	}
}

func TestCastProgressString(t *testing.T) {
	// Compile-time-ish sanity that the progress type formats cleanly in
	// logs (no Stringer, but %+v must not recurse).
	_ = fmt.Sprintf("%+v", CastProgress{ChunksCast: 1})
}

// TestStartAfter pins the pipeline's start rule on synthetic numbers.
func TestStartAfter(t *testing.T) {
	const total = 1536 // cast-rse-lossy's group
	for _, tc := range []struct {
		name   string
		encode time.Duration
		rate   float64
		total  int
		want   int
	}{
		// Encoding a window takes longer than sending one: start at once.
		{"sender-bound", 2 * time.Millisecond, 2e6, total, 0},
		{"lead exactly the group", time.Millisecond, 1536e3, total, 0},
		// The group trickles out over 10 ms, a window encodes in 1 ms:
		// start when a tenth of it is left.
		{"receiver-bound", time.Millisecond, 153600, total, total - 153},
		{"pacer-bound", time.Millisecond, 1000, total, total - 1},
		{"lead under one datagram", time.Microsecond, 1000, total, total},
		// No estimate of one factor or the other: the last quarter.
		{"no rate yet", time.Millisecond, 0, total, total - total/4},
		{"no encode time yet", 0, 1e6, total, total - total/4},
		{"NaN rate", time.Millisecond, math.NaN(), total, total - total/4},
		{"negative rate", time.Millisecond, -5, total, total - total/4},
		// Nothing overflows or goes negative.
		{"infinite rate", time.Millisecond, math.Inf(1), total, 0},
		{"huge both", math.MaxInt64, math.MaxFloat64, math.MaxInt, 0},
		{"huge total", time.Millisecond, 1e6, math.MaxInt, math.MaxInt - 1000},
		{"one datagram", time.Millisecond, 100, 1, 1},
		{"empty group", time.Millisecond, 1e6, 0, 0},
		{"negative total", time.Millisecond, 1e6, -3, 0},
	} {
		got := startAfter(tc.encode, tc.rate, tc.total)
		if got != tc.want {
			t.Errorf("%s: startAfter(%v, %g, %d) = %d, want %d", tc.name, tc.encode, tc.rate, tc.total, got, tc.want)
		}
		if got < 0 || got > max(tc.total, 0) {
			t.Errorf("%s: startAfter = %d outside [0, %d]", tc.name, got, tc.total)
		}
	}
}

// windowGuardConn is a discarding conn that checks, at every write, the
// two things the caster's pipeline promises about memory: every datagram
// it is handed is a live frame — the pool poisons what is released, so a
// view into a slab closed under the sender fails to parse — and no more
// than `bound` pool buffers are out. Each write takes a moment, as a real
// conn's does, so that a group is still on the air when the next window's
// start signal comes.
type windowGuardConn struct {
	discardConn
	t       *testing.T
	start   int64
	bound   int64
	maxLive int64
}

func (c *windowGuardConn) WriteBatch(batch []wire.Datagram) (int, error) {
	time.Sleep(20 * time.Microsecond)
	live := symbol.PoolStats().Live - c.start
	c.maxLive = max(c.maxLive, live)
	if live > c.bound {
		c.t.Errorf("datagram %d: %d pool buffers out, want at most %d", c.packets, live, c.bound)
	}
	for _, d := range batch {
		if _, err := wire.Decode(d); err != nil {
			c.t.Errorf("datagram %d is not a live frame: %v", c.packets, err)
		}
	}
	return c.discardConn.WriteBatch(batch)
}

// TestCasterHoldsTwoWindowsOfLiveFrames: with one window on the air and
// one being encoded, at most two windows of frame slabs — plus, at the
// end, the manifest — are ever out of the pool, and nothing the sending
// stage hands the conn has been released.
func TestCasterHoldsTwoWindowsOfLiveFrames(t *testing.T) {
	symbol.PoisonReleased(true)
	defer symbol.PoisonReleased(false)
	const k, payload, window = 16, 256, 3 // a chunk is one pool buffer
	data := testFile(t, 20*session.ChunkDataSize(k, payload)+100, 23)
	conn := &windowGuardConn{t: t, start: symbol.PoolStats().Live, bound: 2*window + 1}
	c, err := NewCaster(conn, bytes.NewReader(data),
		CasterConfig{Delivery: Delivery{Codec: codes.Spec{K: k, Ratio: 1.5}, PayloadSize: payload, Window: window, Rounds: 2, Seed: 11, BatchSize: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if conn.maxLive <= window {
		t.Errorf("never more than %d pool buffers out: the stages did not overlap", conn.maxLive)
	}
	if live := symbol.PoolStats().Live - conn.start; live != 0 {
		t.Errorf("%d pool buffers still out after Run", live)
	}
}

// TestCasterProgressInOrder: OnProgress runs on the sending stage while
// the reading stage works ahead, and still one call at a time, in group
// order, the Done call last — and all of them before Run returns, which
// is what lets a caller read what its callback wrote without a lock.
func TestCasterProgressInOrder(t *testing.T) {
	const k, payload, window, chunks = 16, 256, 2, 9
	data := testFile(t, chunks*session.ChunkDataSize(k, payload), 29)
	var (
		inCall atomic.Int32
		calls  []CastProgress // unsynchronised on purpose: -race checks the claim
	)
	c, err := NewCaster(&discardConn{}, bytes.NewReader(data), CasterConfig{
		Delivery: Delivery{Codec: codes.Spec{K: k, Ratio: 1.5}, PayloadSize: payload, Window: window, Rounds: 1, Seed: 13},
		OnProgress: func(p CastProgress) {
			if inCall.Add(1) != 1 {
				t.Error("OnProgress called concurrently with itself")
			}
			calls = append(calls, p)
			runtime.Gosched()
			inCall.Add(-1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Four full groups and the short one that carries the manifest.
	if want := (chunks + window - 1) / window; len(calls) != want {
		t.Fatalf("%d progress calls, want %d: %+v", len(calls), want, calls)
	}
	for i, p := range calls {
		wantChunks := min((i+1)*window, chunks)
		if p.ChunksCast != wantChunks {
			t.Errorf("call %d: ChunksCast = %d, want %d", i, p.ChunksCast, wantChunks)
		}
		if i > 0 && p.BytesRead < calls[i-1].BytesRead {
			t.Errorf("call %d: BytesRead went back, %d after %d", i, p.BytesRead, calls[i-1].BytesRead)
		}
		if p.Done != (i == len(calls)-1) {
			t.Errorf("call %d of %d: Done = %v", i, len(calls), p.Done)
		}
	}
	if last := calls[len(calls)-1]; last.BytesRead != int64(len(data)) {
		t.Errorf("final BytesRead = %d, want %d", last.BytesRead, len(data))
	}
}

// slowCountConn discards datagrams, taking a moment per write as a paced
// link does, and counts them where another goroutine can read the count.
type slowCountConn struct {
	discardConn
	sent atomic.Int64
}

func (c *slowCountConn) WriteBatch(batch []wire.Datagram) (int, error) {
	time.Sleep(500 * time.Microsecond)
	c.sent.Add(int64(len(batch)))
	return c.discardConn.WriteBatch(batch)
}

// windowStartReader is the cast's source; it notes how many datagrams the
// conn had taken when the reading stage began each window.
type windowStartReader struct {
	src         io.Reader
	conn        *slowCountConn
	window, per int // chunks per window, source bytes per chunk
	read        int
	starts      []int64
}

func (r *windowStartReader) Read(p []byte) (int, error) {
	if r.read%(r.window*r.per) == 0 {
		r.starts = append(r.starts, r.conn.sent.Load())
	}
	n, err := r.src.Read(p[:min(len(p), r.per-r.read%r.per)])
	r.read += n
	return n, err
}

// TestCasterStartsEveryWindowLate: the cast's one sender carousels group
// after group, and each group's start signal still counts from that
// group's own first datagram. With encoding far faster than the link,
// the reading stage must not begin window g+1 before group g is most of
// the way out: not at a quarter of it, where a signal counted from the
// start of the cast would already have fired.
func TestCasterStartsEveryWindowLate(t *testing.T) {
	const k, payload, window, rounds = 16, 256, 3, 2
	per := session.ChunkDataSize(k, payload)
	conn := &slowCountConn{}
	src := &windowStartReader{src: bytes.NewReader(testFile(t, 5*window*per, 31)), conn: conn, window: window, per: per}
	c, err := NewCaster(conn, src,
		CasterConfig{Delivery: Delivery{Codec: codes.Spec{K: k, Ratio: 1.5}, PayloadSize: payload, Window: window, Rounds: rounds, Seed: 5, BatchSize: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	group := int64(window * 24 * rounds) // datagrams of a full group: n = 24
	if len(src.starts) < 4 {
		t.Fatalf("windows started at %v datagrams: want at least 4 windows", src.starts)
	}
	for g, sent := range src.starts[1:] { // window g+1 starts while group g is on the air
		if into := sent - int64(g)*group; into < group/4 || into > group {
			t.Errorf("window %d started %d datagrams into group %d of %d: want it late in the group", g+1, into, g, group)
		}
	}
}

// TestCastStreamsEndingOnAPieceBoundary: a chunk is read in 64 KiB stage
// pieces, so a stream can end exactly where a piece does — inside a
// chunk, or where the chunk does. Either way the train carries exactly
// the bytes read: the manifest counts them, the collector's stream CRC
// check passes and the bytes round-trip, also through a source that
// returns short reads.
func TestCastStreamsEndingOnAPieceBoundary(t *testing.T) {
	const k, payload = 200, 1024 // a chunk is three full pieces and a short one
	chunk := session.ChunkDataSize(k, payload)
	for _, size := range []int{symbol.MaxPooled, 2 * symbol.MaxPooled, chunk, chunk + symbol.MaxPooled, 2*symbol.MaxPooled + 1} {
		data := testFile(t, size, int64(size))
		for _, short := range []bool{false, true} {
			var src io.Reader = bytes.NewReader(data)
			if short {
				src = iotest.HalfReader(src)
			}
			hub := NewLoopback()
			var out bytes.Buffer
			col := NewCollector(hub.Receiver(nil, 1<<14), &out, CollectorConfig{BaseObjectID: 1})
			done := make(chan error, 1)
			go func() { done <- col.Run(context.Background()) }()
			c, err := NewCaster(hub.Sender(), src, CasterConfig{Delivery: Delivery{BaseObjectID: 1, Codec: codes.Spec{K: k, Ratio: 1.5}, PayloadSize: payload, Window: 2, Rounds: 1, Seed: 3}})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Run(context.Background()); err != nil {
				t.Fatalf("%d bytes (short reads %v): %v", size, short, err)
			}
			if err := <-done; err != nil {
				t.Fatalf("%d bytes (short reads %v): collector: %v", size, short, err)
			}
			hub.Close()
			m, _ := c.Manifest()
			if want := (size + chunk - 1) / chunk; m.TotalSize != uint64(size) || int(m.ChunkCount) != want || c.Stats().BytesRead != uint64(size) {
				t.Errorf("%d bytes (short reads %v): manifest %+v, %d bytes read; want %d chunks", size, short, m, c.Stats().BytesRead, want)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Errorf("%d bytes (short reads %v): the stream did not round-trip", size, short)
			}
		}
	}
}

// TestReadChunkMatchesReadFull: reading a chunk piece by piece gives what
// io.ReadFull of the whole chunk gives — the same bytes, the same count
// and the same error, io.ErrUnexpectedEOF also where the source ends on a
// piece boundary — chunk after chunk, with full and with short reads.
func TestReadChunkMatchesReadFull(t *testing.T) {
	const piece, chunk = symbol.MaxPooled, 3*symbol.MaxPooled - 8 // the last piece is short
	for _, size := range []int{0, piece - 1, piece, 2 * piece, chunk, chunk + 1, chunk + piece, 2 * chunk} {
		for _, short := range []bool{false, true} {
			data := testFile(t, size, int64(size))
			var src io.Reader = bytes.NewReader(data)
			if short {
				src = iotest.HalfReader(src)
			}
			ref := bytes.NewReader(data)
			stage := symbol.NewSlab(3, piece)
			want := make([]byte, chunk)
			for c := 0; ; c++ {
				segs, n, err := readChunk(src, &stage, len(want), nil)
				m, wantErr := io.ReadFull(ref, want)
				if n != m || err != wantErr || !bytes.Equal(bytes.Join(segs, nil), want[:m]) {
					t.Fatalf("size %d (short reads %v), chunk %d: read %d, %v; io.ReadFull read %d, %v",
						size, short, c, n, err, m, wantErr)
				}
				stage.Reset()
				if err != nil {
					break
				}
			}
			stage.Release()
		}
	}
}

// TestCasterSecondRunAllocsUnderAChunk: with the pools warm, a cast reads
// its source through pooled stage pieces and encodes into pooled frame
// slabs, so a second Run at the same geometry allocates less than a
// quarter of one chunk — a chunk-sized staging buffer per Run would be a
// whole one. A Run whose two pipeline stages happen to overlap more than
// any before it draws a frame buffer fresh, so the least of three Runs
// counts.
func TestCasterSecondRunAllocsUnderAChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const k, payload = 256, 1024
	chunk := session.ChunkDataSize(k, payload)
	data := testFile(t, 4*chunk, 37)
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := NewCaster(&discardConn{}, bytes.NewReader(data),
			CasterConfig{Delivery: Delivery{Codec: codes.Spec{K: k, Ratio: 1.5}, PayloadSize: payload, Window: 2, Rounds: 1, Seed: 9}})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // fills the pools and the codec cache
	if grown := min(run(), run(), run()); grown >= uint64(chunk/4) {
		t.Fatalf("a second Run allocated %d bytes, want under a quarter of one %d-byte chunk", grown, chunk)
	}
}
