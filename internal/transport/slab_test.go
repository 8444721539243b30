package transport

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"hash"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"fecperf/internal/channel"
	"fecperf/internal/codes"
	"fecperf/internal/obs"
	"fecperf/internal/session"
	"fecperf/internal/symbol"
	"fecperf/internal/wire"
)

// Tests for the ownership seam of the slab datapath: who holds an
// object's slab at each stage of a cast, and that it always goes back.

// slowSink is a destination writer that takes its time and, like any
// io.Writer, keeps nothing of what it is handed but the hash.
type slowSink struct {
	h     hash.Hash
	delay time.Duration
}

func (s *slowSink) Write(p []byte) (int, error) {
	time.Sleep(s.delay)
	return s.h.Write(p)
}

// TestCastCollectSlowSinkReturnsEverySlab casts 4 MiB through a Gilbert
// loopback into a slow sink. Random schedules over a window of four make
// chunks complete out of order, so decoded chunks wait slab-resident in
// the collector's reorder buffer while earlier ones are still being
// written; when both ends have returned, every slab — the caster's
// frames, the decoders' sources, parity and scratch, the queued chunks —
// must be back in the pool, and the sink must have seen the right bytes.
func TestCastCollectSlowSinkReturnsEverySlab(t *testing.T) {
	data := testFile(t, 4<<20, 31)
	want := sha256.Sum256(data)
	start := symbol.PoolStats().Live

	hub := NewLoopback()
	defer hub.Close()
	rxConn := hub.Receiver(channel.NewGilbert(0.02, 0.5, rand.New(rand.NewSource(8))), 1<<18)
	sink := &slowSink{h: sha256.New(), delay: 200 * time.Microsecond}
	var col *Collector
	maxPending := uint64(0) // read after wg.Wait
	col = NewCollector(rxConn, sink, CollectorConfig{
		BaseObjectID: 900,
		OnProgress: func(CollectProgress) {
			if p := col.CollectStats().ChunksPending; p > maxPending {
				maxPending = p
			}
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	var colErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		colErr = col.Run(ctx)
	}()
	caster, err := NewCaster(hub.Sender(), bytes.NewReader(data), CasterConfig{Delivery: Delivery{
		BaseObjectID: 900,
		Codec:        codes.Spec{Family: "ldgm-staircase", K: 256, Ratio: 1.5}, PayloadSize: 512,
		Window: 4, Rounds: 2, Seed: 6, BatchSize: 16,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := caster.Run(ctx); err != nil {
		t.Fatalf("caster.Run: %v", err)
	}
	wg.Wait()
	if colErr != nil {
		t.Fatalf("collector.Run: %v (progress %+v)", colErr, col.Progress())
	}
	if got := sink.h.Sum(nil); !bytes.Equal(got, want[:]) {
		t.Fatal("collected stream has the wrong SHA-256")
	}
	if maxPending == 0 {
		t.Fatal("no chunk ever waited out of order: the test did not exercise the reorder buffer")
	}
	if live := symbol.PoolStats().Live - start; live != 0 {
		t.Fatalf("%d pool buffers still checked out after the cast", live)
	}
}

// TestCollectorCancelMidChunkReturnsEverySlab: a collector whose Run ends
// while a chunk is half received — cancelled here; a writer error or a
// completed train with a straggler in flight leave by the same path —
// must hand back the slabs of the daemon's partial objects too.
func TestCollectorCancelMidChunkReturnsEverySlab(t *testing.T) {
	start := symbol.PoolStats().Live
	hub := NewLoopback()
	defer hub.Close()
	col := NewCollector(hub.Receiver(nil, 1<<16), io.Discard, CollectorConfig{BaseObjectID: 40})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- col.Run(ctx) }()

	// Every other datagram of chunk 0: half its sources and half its
	// parity are buffered, and 3/4·k symbols decode nothing.
	obj := encodeTestObject(t, testFile(t, 64<<10, 7), 41, wire.CodeRSE, 1.5, 1024)
	tx := hub.Sender()
	sent := uint64(0)
	for id := 0; id < obj.N(); id += 2 {
		frame, err := obj.Frame(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := sendOne(tx, frame); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	obj.Close()
	for deadline := time.Now().Add(10 * time.Second); col.CollectStats().Receiver.PacketsIngested < sent; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("collector ingested %d of %d datagrams", col.CollectStats().Receiver.PacketsIngested, sent)
		}
	}
	if held := symbol.PoolStats().Live - start; held <= 0 {
		t.Fatalf("%d pool buffers held mid-chunk: the test did not build partial state", held)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("collector.Run = %v, want context.Canceled", err)
	}
	if live := symbol.PoolStats().Live - start; live != 0 {
		t.Fatalf("%d pool buffers still checked out after a cancelled collect", live)
	}
}

// tripSource serves r and calls trip before every Read once `after` bytes
// are out; a non-nil result fails that Read.
type tripSource struct {
	r     io.Reader
	after int
	trip  func() error
}

func (s *tripSource) Read(p []byte) (int, error) {
	if s.after <= 0 {
		if err := s.trip(); err != nil {
			return 0, err
		}
	} else if len(p) > s.after {
		p = p[:s.after]
	}
	n, err := s.r.Read(p)
	s.after -= n
	return n, err
}

// tripConn discards datagrams and calls trip before every write once
// `after` of them went out; a non-nil result fails that write. Once
// holdAfter (when set) went out it keeps the writer — a carousel on the
// air — waiting until hold is closed.
type tripConn struct {
	discardConn
	after     int
	trip      func() error
	holdAfter int
	hold      <-chan struct{}
}

func (c *tripConn) WriteBatch(batch []wire.Datagram) (int, error) {
	if c.hold != nil && c.packets >= c.holdAfter {
		<-c.hold
	}
	if c.packets >= c.after {
		if err := c.trip(); err != nil {
			return 0, err
		}
	}
	return c.discardConn.WriteBatch(batch)
}

// waitGoroutines waits for the goroutine count to come back down to
// want: a goroutine Run has already waited for may still be unwinding.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestCasterFailedOrCancelledRunReturnsEverySlab stops a cast in each way
// Run can stop — with a partly filled window, a partly sent one, and both
// at once: a group held on the air while the next window is being read,
// or waits finished for its turn — and requires every frame slab back in
// the pool, and the sending stage's goroutine gone, when Run has
// returned. A chunk here is one pool buffer, and so is the manifest.
func TestCasterFailedOrCancelledRunReturnsEverySlab(t *testing.T) {
	const (
		k, payload, window = 16, 256, 4
		chunk              = k*payload - 8
		group              = window * (k * 3 / 2) * 2 // datagrams: two rounds of four 24-packet chunks
		never              = 1 << 30
	)
	data := testFile(t, 12*chunk, 17)
	boom := errors.New("boom")
	for _, tc := range []struct {
		name       string
		srcAfter   int  // source bytes before the trip
		connAfter  int  // datagrams before the trip
		holdAfter  int  // datagrams before the conn stalls until the trip (0 = never); let go, it trips too if connAfter says so
		liveAtTrip int  // trip, from outside, once this many pool buffers are out (0 = never)
		cancel     bool // the trip cancels the context instead of failing
		wantErr    error
		wantChunks uint64
		wantHeld   int64 // pool buffers out at the trip, at least
	}{
		{name: "cancelled while filling the window", srcAfter: 2*chunk + chunk/2, connAfter: never, cancel: true, wantErr: context.Canceled, wantHeld: 2},
		{name: "source fails while filling the window", srcAfter: 2*chunk + chunk/2, connAfter: never, wantErr: boom, wantHeld: 2},
		{name: "cancelled while a group is on the air", srcAfter: never, connAfter: 30, cancel: true, wantErr: context.Canceled, wantHeld: window},
		{name: "conn fails while a group is on the air", srcAfter: never, connAfter: 30, wantErr: boom, wantHeld: window},
		{name: "conn fails in the second group", srcAfter: never, connAfter: group + 30, wantErr: boom, wantChunks: window, wantHeld: window},
		// The first group stalls past its start signal (the last quarter),
		// so the next window is being read while it is on the air.
		{name: "cancelled filling the next window, a group on the air", srcAfter: 5*chunk + chunk/2, connAfter: never, holdAfter: group - 20, cancel: true, wantErr: context.Canceled, wantHeld: window + 1},
		{name: "source fails filling the next window, a group on the air", srcAfter: 5*chunk + chunk/2, connAfter: group - 20, holdAfter: group - 20, wantErr: boom, wantHeld: window + 1},
		{name: "cancelled with the next window finished, a group on the air", srcAfter: never, connAfter: never, holdAfter: group - 20, liveAtTrip: 2 * window, cancel: true, wantErr: context.Canceled, wantHeld: 2 * window},
		{name: "conn fails in the second group, the third window finished", srcAfter: never, connAfter: 2*group - 20, holdAfter: 2*group - 20, liveAtTrip: 2 * window, wantErr: boom, wantChunks: window, wantHeld: 2 * window},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := symbol.PoolStats().Live
			goroutines := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var (
				once sync.Once
				held int64 // pool buffers out when the trip first fired
				hold = make(chan struct{})
			)
			release := func() {
				once.Do(func() {
					held = symbol.PoolStats().Live - start
					close(hold)
				})
			}
			trip := func() error {
				if tc.cancel {
					// Before the stalled conn is let go, so the group
					// it holds cannot finish first.
					cancel()
					release()
					return nil
				}
				release()
				return boom
			}
			conn := &tripConn{after: tc.connAfter, trip: trip}
			if tc.holdAfter > 0 {
				conn.holdAfter, conn.hold = tc.holdAfter, hold
			}
			watched := make(chan struct{})
			go func() {
				defer close(watched)
				for tc.liveAtTrip > 0 && ctx.Err() == nil {
					if symbol.PoolStats().Live-start >= int64(tc.liveAtTrip) {
						if tc.cancel {
							trip()
						} else {
							release() // the stalled conn runs into its own trip
						}
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}()
			c, err := NewCaster(conn,
				&tripSource{r: bytes.NewReader(data), after: tc.srcAfter, trip: trip},
				CasterConfig{Delivery: Delivery{BaseObjectID: 60, Codec: codes.Spec{K: k, Ratio: 1.5}, PayloadSize: payload, Window: window, Rounds: 2, Seed: 5}})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Run(ctx); !errors.Is(err, tc.wantErr) {
				t.Fatalf("Run = %v, want %v", err, tc.wantErr)
			}
			cancel()
			<-watched
			if held < tc.wantHeld {
				t.Fatalf("%d pool buffers held when the cast was stopped, want at least %d: the windows were not what the case is about", held, tc.wantHeld)
			}
			if got := c.Stats().ChunksCast; got != tc.wantChunks {
				t.Errorf("ChunksCast = %d, want %d", got, tc.wantChunks)
			}
			if live := symbol.PoolStats().Live - start; live != 0 {
				t.Errorf("%d pool buffers still checked out after Run returned", live)
			}
			waitGoroutines(t, goroutines)
		})
	}
}

// TestReceiverDaemonHeldBytesSurviveLaterObjects: bytes a caller obtained
// from OnComplete, WaitObject or Object are its own — a hundred further
// objects decoding through the same pooled slabs must not change them.
func TestReceiverDaemonHeldBytesSurviveLaterObjects(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	var mu sync.Mutex
	completed := map[uint32][]byte{}
	d := NewReceiverDaemon(hub.Receiver(nil, 1<<16), ReceiverConfig{
		OnComplete: func(id uint32, data []byte) {
			mu.Lock()
			completed[id] = data
			mu.Unlock()
		},
	})
	stop := runDaemon(t, d)
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	send := func(id uint32, file []byte) []byte {
		t.Helper()
		s := NewSender(hub.Sender(), SenderConfig{Rounds: 1, Seed: int64(id)})
		if err := s.Add(encodeTestObject(t, file, id, wire.CodeRSE, 1.5, 1024)); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(ctx); err != nil {
			t.Fatal(err)
		}
		s.Close()
		got, err := d.WaitObject(ctx, id)
		if err != nil {
			t.Fatalf("WaitObject(%d): %v", id, err)
		}
		return got
	}

	file := testFile(t, 100<<10, 1)
	waited := send(1, file)
	object, ok := d.Object(1)
	if !ok {
		t.Fatal("Object(1) not retained")
	}
	for id := uint32(2); id < 102; id++ {
		send(id, testFile(t, 100<<10, int64(id)))
	}
	// OnComplete(1) ran on the Run goroutine before any later datagram
	// was read, so its slice has been held through all hundred decodes.
	mu.Lock()
	notified := completed[1]
	mu.Unlock()
	for name, held := range map[string][]byte{"WaitObject": waited, "Object": object, "OnComplete": notified} {
		if !bytes.Equal(held, file) {
			t.Errorf("bytes from %s changed under their holder", name)
		}
	}
}

// TestForgedHugeFirstDatagramCommitsOneSlab: a single CRC-valid datagram
// announcing the largest object the daemon accepts, with the largest
// payload it reads, must cost one slab buffer plus the per-object tables
// (a few bytes per announced packet: bitmaps, block and slab tables, the
// cached code's layout) — not the k × symLen ≈ 500 MiB it announces.
func TestForgedHugeFirstDatagramCommitsOneSlab(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates the heap")
	}
	hub := NewLoopback()
	defer hub.Close()
	d := NewReceiverDaemon(hub.Receiver(nil, 16), ReceiverConfig{})
	n := d.cfg.MaxObjectPackets
	forged, err := (&wire.Packet{
		Family:   wire.CodeRSE,
		ObjectID: 666,
		PacketID: 12345,
		K:        uint32(n),
		N:        uint32(n),
		Payload:  make([]byte, d.cfg.MTU-wire.HeaderLen),
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	poolBefore := symbol.PoolStats()
	before := heap()
	d.ingest([]wire.Datagram{forged})
	grown := int64(heap() - before)
	if st := d.Stats(); st.PacketsIngested != 1 || st.ObjectsStarted != 1 {
		t.Fatalf("forged datagram was not ingested: %+v", st)
	}
	if gets := symbol.PoolStats().Gets - poolBefore.Gets; gets != 1 {
		t.Errorf("one datagram drew %d pool buffers, want 1", gets)
	}
	tables := int64(16 * n) // measured: 11 B/packet with the code built here, 2 B/packet with it cached
	if limit := int64(symbol.MaxPooled) + tables; grown > limit {
		t.Errorf("heap grew %d bytes for one forged datagram, want <= %d (one slab buffer + tables); announced %d",
			grown, limit, n*(d.cfg.MTU-wire.HeaderLen))
	}
	d.forgetInFlight()
	if live := symbol.PoolStats().Live - poolBefore.Live; live != 0 {
		t.Errorf("%d pool buffers live after the object was forgotten", live)
	}
}

// TestReceiverDaemonCorruptObjectLeavesNoEntry: an object whose symbols
// all arrive but whose length prefix announces more bytes than they hold
// is over when its last datagram lands. Nothing of it may outlive that
// datagram — no in-flight entry (a MaxInFlight slot), no slab — and the
// datagram is bad, not inconsistent with anything.
func TestReceiverDaemonCorruptObjectLeavesNoEntry(t *testing.T) {
	start := symbol.PoolStats().Live
	hub := NewLoopback()
	defer hub.Close()
	reg := obs.NewRegistry("fecperf")
	d := NewReceiverDaemon(hub.Receiver(nil, 16), ReceiverConfig{Metrics: reg})
	inFlight := func() int64 {
		v, _ := reg.GaugeValue("receiver_inflight_objects", nil)
		return v
	}
	obj := encodeTestObject(t, testFile(t, 8<<10, 5), 9, wire.CodeRSE, 1.5, 1024)
	k := obj.K()
	var sources [][]byte
	for id := 0; id < k; id++ {
		f, err := obj.Datagram(id)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, f)
	}
	obj.Close()
	sources[0][wire.HeaderLen] = 0xFF // the length prefix now announces 2^63 bytes and more
	for id := k - 1; id > 0; id-- {
		d.ingest([]wire.Datagram{sources[id]})
	}
	if got, held := inFlight(), symbol.PoolStats().Live-start; got != 1 || held <= 0 {
		t.Fatalf("before the last datagram: %d objects in flight, %d pool buffers held; want 1, > 0", got, held)
	}
	d.ingest([]wire.Datagram{sources[0]})
	st := d.Stats()
	if st.PacketsBad != 1 || st.PacketsInconsistent != 0 || st.PacketsIngested != uint64(k-1) || st.ObjectsDecoded != 0 {
		t.Errorf("corrupt object's last datagram miscounted: %+v", st)
	}
	if got := inFlight(); got != 0 {
		t.Errorf("receiver_inflight_objects = %d after the corrupt object ended, want 0", got)
	}
	if live := symbol.PoolStats().Live - start; live != 0 {
		t.Errorf("%d pool buffers still checked out after the corrupt object ended", live)
	}
}

// TestReceiverDaemonCorruptObjectHandedOutOnce: the Reassembly of an
// object found corrupt has closed itself by the time Ingest returns, and
// the daemon must close nothing of it again, so it goes back for reuse
// once: the next two objects to open get distinct Reassemblies.
func TestReceiverDaemonCorruptObjectHandedOutOnce(t *testing.T) {
	start := symbol.PoolStats().Live
	hub := NewLoopback()
	defer hub.Close()
	d := NewReceiverDaemon(hub.Receiver(nil, 16), ReceiverConfig{})
	first := func(id uint32) []byte {
		obj := encodeTestObject(t, testFile(t, 4<<10, int64(id)), id, wire.CodeRSE, 1.5, 1024)
		defer obj.Close()
		f, err := obj.Datagram(0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	corrupt := encodeTestObject(t, testFile(t, 1<<10-8, 5), 9, wire.CodeNoFEC, 1, 1024) // one symbol
	f, err := corrupt.Datagram(0)
	if err != nil {
		t.Fatal(err)
	}
	corrupt.Close()
	f[wire.HeaderLen] = 0xFF // the length prefix now announces 2^63 bytes and more
	d.ingest([]wire.Datagram{f, first(10), first(11)})
	if st := d.Stats(); st.PacketsBad != 1 || st.PacketsIngested != 2 {
		t.Fatalf("stats %+v, want one bad datagram and two ingested", st)
	}
	if a, b := d.objects[10], d.objects[11]; a == nil || b == nil || a.asm == b.asm {
		t.Fatal("the corrupt object's Reassembly was handed to two objects")
	}
	d.forgetInFlight()
	if live := symbol.PoolStats().Live - start; live != 0 {
		t.Errorf("%d pool buffers still checked out", live)
	}
}

// TestReceiverDaemonIngestAllocsNothing pins the steady state of the
// object table at zero allocations per datagram, whichever entry the
// datagram finds: an in-flight object's next symbol (the header parses
// into the Run goroutine's scratch packet and the payload is copied into a
// slab slot), a repeat for another in-flight object (both move to the LRU
// front in turn), and a late datagram for a decoded one.
func TestReceiverDaemonIngestAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	hub := NewLoopback()
	defer hub.Close()
	for _, g := range []struct {
		family  wire.CodeFamily
		payload int
		size    int
	}{
		{wire.CodeRSE, 1024, 200 << 10},
		{wire.CodeLDGMStaircase, 128, 200 << 10},
	} {
		d := NewReceiverDaemon(hub.Receiver(nil, 16), ReceiverConfig{})
		frame := func(obj *session.Object, id int) []byte {
			f, err := obj.Datagram(id)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		obj := encodeTestObject(t, testFile(t, g.size, 3), 77, g.family, 1.5, g.payload)
		// Sources and parity alternately, well short of completing.
		var datagrams [][]byte
		for i := 0; i < 51; i++ {
			datagrams = append(datagrams, frame(obj, i), frame(obj, obj.K()+i))
		}
		obj.Close()
		decoded := encodeTestObject(t, testFile(t, g.payload/2, 4), 78, g.family, 1.5, g.payload)
		late := frame(decoded, 0) // a one-symbol object: its first datagram decodes it
		decoded.Close()
		other := encodeTestObject(t, testFile(t, g.size, 5), 79, g.family, 1.5, g.payload)
		repeat := frame(other, 0)
		other.Close()
		d.ingest([]wire.Datagram{late})
		d.ingest([]wire.Datagram{repeat})
		fed := 0
		batch := make([]wire.Datagram, 3)
		run := func() {
			batch[0], batch[1], batch[2] = datagrams[fed], repeat, late
			d.ingest(batch)
			fed++
		}
		run() // opens the object's state and its first slab buffers
		run()
		if avg := testing.AllocsPerRun(99, run); avg != 0 {
			t.Errorf("%v: ingest allocs per batch of three datagrams = %v, want 0", g.family, avg)
		}
		want := Stats{PacketsIngested: uint64(fed) + 2, PacketsDuplicate: uint64(fed), PacketsLate: uint64(fed), ObjectsStarted: 3, ObjectsDecoded: 1}
		st := d.Stats()
		want.PacketsSeen, want.BytesSeen = st.PacketsSeen, st.BytesSeen
		if st != want {
			t.Fatalf("%v: stats %+v, want %+v", g.family, st, want)
		}
		d.forgetInFlight()
	}
}

// TestCollectorWriteChunkAllocsNothing: writing a decoded chunk out of
// its slab — every segment to the destination and into the stream CRC —
// allocates nothing, however many slab buffers the chunk spans.
func TestCollectorWriteChunkAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	start := symbol.PoolStats().Live
	data := testFile(t, 200<<10, 6) // four slab buffers of 1 KiB symbols
	obj := encodeTestObject(t, data, 5, wire.CodeRSE, 1.5, 1024)
	var chunk *session.Decoded
	var a *session.Reassembly
	for id := 0; id < obj.N() && chunk == nil; id++ {
		d, err := obj.Datagram(id)
		if err != nil {
			t.Fatal(err)
		}
		var p wire.Packet
		if err := wire.DecodeTo(&p, d); err != nil {
			t.Fatal(err)
		}
		if a == nil {
			if a, err = session.OpenReassembly(&p); err != nil {
				t.Fatal(err)
			}
		}
		if _, chunk, err = a.Ingest(&p); err != nil {
			t.Fatal(err)
		}
	}
	obj.Close()
	if chunk == nil {
		t.Fatal("object did not decode")
	}
	defer chunk.Release()
	var sink bytes.Buffer
	c := NewCollector(nil, &sink, CollectorConfig{})
	if err := c.writeChunkLocked(chunk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Bytes(), data) {
		t.Fatal("the chunk written differs from the object sent")
	}
	c.dst = io.Discard
	if avg := testing.AllocsPerRun(100, func() { c.writeChunkLocked(chunk) }); avg != 0 { //nolint:errcheck
		t.Errorf("writing a chunk: %v allocs, want 0", avg)
	}
	chunk.Release()
	if live := symbol.PoolStats().Live - start; live != 0 {
		t.Errorf("%d pool buffers live at the end", live)
	}
}
