package transport

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"fecperf/internal/wire"
)

// runDaemon starts a daemon over conn and returns a stop function that
// cancels it and waits for Run to return.
func runDaemon(t *testing.T, d *ReceiverDaemon) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	// Idempotent, so a test may stop the daemon before its deferred stop:
	// a batch is counted seen before its datagrams are classified, so
	// Stats is only settled once Run has returned.
	return sync.OnceFunc(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil && err != context.Canceled {
				t.Errorf("daemon Run: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("daemon did not stop on cancel")
		}
	})
}

func TestReceiverDaemonDecodesLosslessBroadcast(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	file := testFile(t, 32<<10, 11)
	obj := encodeTestObject(t, file, 42, wire.CodeLDGMStaircase, 2.0, 1024)

	d := NewReceiverDaemon(hub.Receiver(nil, 4096), ReceiverConfig{})
	stop := runDaemon(t, d)
	defer stop()

	s := NewSender(hub.Sender(), SenderConfig{Rounds: 1, Seed: 3})
	if err := s.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	data, err := d.WaitObject(ctx, 42)
	if err != nil {
		t.Fatalf("WaitObject: %v", err)
	}
	if !bytes.Equal(data, file) {
		t.Fatal("decoded object differs from original")
	}
	if got, ok := d.Object(42); !ok || !bytes.Equal(got, file) {
		t.Fatal("Object(42) does not return the decoded bytes")
	}
	if !d.Completed(42) {
		t.Fatal("Completed(42) = false after decode")
	}
}

func TestReceiverDaemonMultiObjectAndStats(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	files := map[uint32][]byte{
		1: testFile(t, 8<<10, 21),
		2: testFile(t, 12<<10, 22),
		3: testFile(t, 6<<10, 23),
	}
	var completions sync.Map
	d := NewReceiverDaemon(hub.Receiver(nil, 65536), ReceiverConfig{
		OnComplete: func(id uint32, data []byte) { completions.Store(id, data) },
	})
	stop := runDaemon(t, d)
	defer stop()

	s := NewSender(hub.Sender(), SenderConfig{Rounds: 2, Seed: 4})
	for id, f := range files {
		if err := s.Add(encodeTestObject(t, f, id, wire.CodeLDGMTriangle, 2.0, 512)); err != nil {
			t.Fatal(err)
		}
	}
	// Inject garbage and a truncated datagram mid-stream; both must be
	// counted and ignored.
	tx := hub.Sender()
	tx.Send([]byte("not a fec packet, definitely too long to be short")) //nolint:errcheck
	tx.Send([]byte{0xFE})                                                //nolint:errcheck
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for id, f := range files {
		data, err := d.WaitObject(ctx, id)
		if err != nil {
			t.Fatalf("WaitObject(%d): %v", id, err)
		}
		if !bytes.Equal(data, f) {
			t.Fatalf("object %d corrupted", id)
		}
		// Waiters are woken before OnComplete runs; give it a moment.
		got, ok := completions.Load(id)
		for deadline := time.Now().Add(5 * time.Second); !ok && time.Now().Before(deadline); got, ok = completions.Load(id) {
			time.Sleep(time.Millisecond)
		}
		if !ok || !bytes.Equal(got.([]byte), f) {
			t.Fatalf("OnComplete missing or wrong for object %d", id)
		}
	}
	// The daemon is still draining round 2: the counters are independent
	// atomics, so a snapshot taken mid-datagram has seen one more than it
	// has classified. Wait for a quiescent one.
	sum := func(st Stats) uint64 {
		return st.PacketsIngested + st.PacketsBad + st.PacketsLate + st.PacketsInconsistent + st.PacketsTruncated
	}
	st := d.Stats()
	for deadline := time.Now().Add(5 * time.Second); st.PacketsSeen != sum(st) && time.Now().Before(deadline); st = d.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.ObjectsDecoded != 3 {
		t.Errorf("ObjectsDecoded = %d, want 3", st.ObjectsDecoded)
	}
	if st.ObjectsStarted != 3 {
		t.Errorf("ObjectsStarted = %d, want 3", st.ObjectsStarted)
	}
	if st.PacketsBad != 2 {
		t.Errorf("PacketsBad = %d, want 2", st.PacketsBad)
	}
	// Round 2 arrives entirely after each object decoded in round 1.
	if st.PacketsLate == 0 {
		t.Error("PacketsLate = 0, want late carousel packets counted")
	}
	if st.PacketsSeen != sum(st) {
		t.Errorf("stats do not add up: %+v", st)
	}
}

func TestReceiverDaemonLRUEviction(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	d := NewReceiverDaemon(hub.Receiver(nil, 65536), ReceiverConfig{MaxInFlight: 2})
	stop := runDaemon(t, d)

	// Send one datagram from each of 5 objects: every arrival past the
	// second must evict the stalest partial object.
	tx := hub.Sender()
	for id := uint32(1); id <= 5; id++ {
		obj := encodeTestObject(t, testFile(t, 4<<10, int64(id)), id, wire.CodeLDGMStaircase, 2.0, 512)
		dgram, err := obj.Datagram(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Send(dgram); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().PacketsSeen < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	st := d.Stats()
	if st.ObjectsStarted != 5 {
		t.Errorf("ObjectsStarted = %d, want 5", st.ObjectsStarted)
	}
	if st.ObjectsEvicted != 3 {
		t.Errorf("ObjectsEvicted = %d, want 3 (bound of 2 in flight)", st.ObjectsEvicted)
	}
}

func TestReceiverDaemonCompletedBytesBound(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	d := NewReceiverDaemon(hub.Receiver(nil, 65536), ReceiverConfig{MaxCompleted: 2})
	stop := runDaemon(t, d)
	defer stop()

	s := NewSender(hub.Sender(), SenderConfig{Rounds: 1, Seed: 9})
	for id := uint32(1); id <= 4; id++ {
		if err := s.Add(encodeTestObject(t, testFile(t, 2<<10, int64(10+id)), id, wire.CodeRSE, 1.5, 256)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().ObjectsDecoded < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := d.Stats().ObjectsDecoded; got != 4 {
		t.Fatalf("ObjectsDecoded = %d, want 4", got)
	}
	retained := 0
	for id := uint32(1); id <= 4; id++ {
		if !d.Completed(id) {
			t.Errorf("Completed(%d) = false", id)
		}
		if _, ok := d.Object(id); ok {
			retained++
		}
	}
	if retained != 2 {
		t.Errorf("retained %d decoded objects, want 2 (MaxCompleted)", retained)
	}
}

// TestReceiverDaemonCompletedIDsBound: an ID still among the last
// MaxCompletedIDs completions is discarded as late; one pushed out of that
// FIFO is forgotten entirely, so its datagrams decode it — and fire
// OnComplete — a second time. Run with the byte bound below and equal to
// the ID bound, the two ways an entry's bytes can go.
func TestReceiverDaemonCompletedIDsBound(t *testing.T) {
	for _, maxCompleted := range []int{1, 2} {
		hub := NewLoopback()
		completions := map[uint32]int{}
		d := NewReceiverDaemon(hub.Receiver(nil, 16), ReceiverConfig{
			MaxCompleted:    maxCompleted,
			MaxCompletedIDs: 2,
			OnComplete:      func(id uint32, _ []byte) { completions[id]++ },
		})
		sources := func(id uint32) [][]byte {
			obj := encodeTestObject(t, testFile(t, 2<<10, int64(id)), id, wire.CodeRSE, 1.5, 256)
			defer obj.Close()
			var out [][]byte
			for i := 0; i < obj.K(); i++ {
				f, err := obj.Datagram(i)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, f)
			}
			return out
		}
		feed := func(id uint32) {
			for _, f := range sources(id) {
				d.ingest([]wire.Datagram{f})
			}
		}
		feed(1)
		feed(2)
		if _, held := d.Object(1); held != (maxCompleted == 2) {
			t.Errorf("MaxCompleted %d: Object(1) held = %v after two completions", maxCompleted, held)
		}
		if _, err := d.WaitObject(context.Background(), 1); (err == nil) != (maxCompleted == 2) {
			t.Errorf("MaxCompleted %d: WaitObject(1) = %v", maxCompleted, err)
		}
		d.ingest([]wire.Datagram{sources(1)[0]})
		if st := d.Stats(); st.PacketsLate != 1 || st.ObjectsDecoded != 2 {
			t.Fatalf("MaxCompleted %d: remembered ID not discarded as late: %+v", maxCompleted, st)
		}
		feed(3) // pushes ID 1 out of the FIFO
		if d.Completed(1) || !d.Completed(2) || !d.Completed(3) {
			t.Fatalf("MaxCompleted %d: Completed(1,2,3) = %v %v %v, want false true true",
				maxCompleted, d.Completed(1), d.Completed(2), d.Completed(3))
		}
		late := d.Stats().PacketsLate
		feed(1)
		if st := d.Stats(); st.ObjectsDecoded != 4 || st.PacketsLate != late || completions[1] != 2 {
			t.Fatalf("MaxCompleted %d: forgotten ID did not decode again: %+v, OnComplete(1) ran %d times",
				maxCompleted, st, completions[1])
		}
		if _, held := d.Object(1); !held || d.Completed(2) {
			t.Errorf("MaxCompleted %d: after the second decode Object(1) held = %v, Completed(2) = %v",
				maxCompleted, held, d.Completed(2))
		}
		hub.Close()
	}
}

// TestReceiverDaemonConcurrentSenders drives one daemon from four
// concurrent senders over a shared loopback — the -race acceptance
// scenario: fan-in delivery, atomic stats reads, and waiter wakeups all
// running at once.
func TestReceiverDaemonConcurrentSenders(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	const nsenders = 4
	files := make(map[uint32][]byte, nsenders)
	for id := uint32(1); id <= nsenders; id++ {
		files[id] = testFile(t, 16<<10, int64(30+id))
	}
	d := NewReceiverDaemon(hub.Receiver(nil, 1<<17), ReceiverConfig{MaxCompleted: nsenders})
	stop := runDaemon(t, d)
	defer stop()

	var wg sync.WaitGroup
	for id := uint32(1); id <= nsenders; id++ {
		obj := encodeTestObject(t, files[id], id, wire.CodeLDGMStaircase, 2.0, 512)
		s := NewSender(hub.Sender(), SenderConfig{Rounds: 2, Seed: int64(id)})
		if err := s.Add(obj); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Run(context.Background()); err != nil {
				t.Errorf("sender: %v", err)
			}
		}()
	}
	// Concurrent stats polling while senders run.
	pollCtx, pollCancel := context.WithCancel(context.Background())
	var poll sync.WaitGroup
	poll.Add(1)
	go func() {
		defer poll.Done()
		for pollCtx.Err() == nil {
			_ = d.Stats()
			time.Sleep(time.Millisecond)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for id, f := range files {
		data, err := d.WaitObject(ctx, id)
		if err != nil {
			t.Fatalf("WaitObject(%d): %v", id, err)
		}
		if !bytes.Equal(data, f) {
			t.Fatalf("object %d corrupted under concurrency", id)
		}
	}
	wg.Wait()
	pollCancel()
	poll.Wait()
}

func TestWaitObjectCancellation(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	d := NewReceiverDaemon(hub.Receiver(nil, 16), ReceiverConfig{})
	stop := runDaemon(t, d)
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := d.WaitObject(ctx, 999); err != context.DeadlineExceeded {
		t.Fatalf("WaitObject = %v, want deadline exceeded", err)
	}
}

// TestReceiverDaemonRejectsForgedHugeOTI sends a CRC-valid datagram
// whose OTI announces a billion-packet object; the daemon must discard
// it before the decoder constructor allocates for it.
func TestReceiverDaemonRejectsForgedHugeOTI(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	d := NewReceiverDaemon(hub.Receiver(nil, 16), ReceiverConfig{})
	stop := runDaemon(t, d)
	defer stop()

	forged, err := (&wire.Packet{
		Family:   wire.CodeLDGMStaircase,
		ObjectID: 666,
		PacketID: 0,
		K:        1 << 30,
		N:        1<<30 + 1,
		Payload:  []byte{1},
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Sender().Send(forged); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().PacketsSeen < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	st := d.Stats()
	if st.PacketsBad != 1 || st.ObjectsStarted != 0 {
		t.Fatalf("forged OTI not rejected: %+v", st)
	}
}

// TestReceiverDaemonUnopenablePacketsDoNotEvict floods a full daemon
// with datagrams that cannot open reassembly state (zero-length
// symbols); live in-flight objects must survive.
func TestReceiverDaemonUnopenablePacketsDoNotEvict(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	d := NewReceiverDaemon(hub.Receiver(nil, 4096), ReceiverConfig{MaxInFlight: 2})
	stop := runDaemon(t, d)
	defer stop()
	tx := hub.Sender()

	// Fill the two in-flight slots with real partial objects.
	for id := uint32(1); id <= 2; id++ {
		obj := encodeTestObject(t, testFile(t, 4<<10, int64(id)), id, wire.CodeLDGMStaircase, 2.0, 512)
		dgram, err := obj.Datagram(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Send(dgram); err != nil {
			t.Fatal(err)
		}
	}
	// Flood with unopenable state: zero-length payloads, fresh IDs.
	for id := uint32(100); id < 150; id++ {
		bad, err := (&wire.Packet{
			Family: wire.CodeLDGMStaircase, ObjectID: id, K: 4, N: 8,
		}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Send(bad); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().PacketsSeen < 52 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	st := d.Stats()
	if st.ObjectsEvicted != 0 {
		t.Fatalf("unopenable packets evicted live objects: %+v", st)
	}
	if st.PacketsBad != 50 {
		t.Errorf("PacketsBad = %d, want 50", st.PacketsBad)
	}
}

// TestReceiverDaemonCountsTruncation sends a datagram larger than the
// daemon's MTU; it must be counted as truncated, not as generic
// corruption — the operator's clue that sender payload > receiver MTU.
func TestReceiverDaemonCountsTruncation(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	d := NewReceiverDaemon(hub.Receiver(nil, 16), ReceiverConfig{MTU: 256})
	stop := runDaemon(t, d)
	defer stop()

	obj := encodeTestObject(t, testFile(t, 2<<10, 8), 5, wire.CodeLDGMStaircase, 2.0, 512)
	dgram, err := obj.Datagram(0) // 552 bytes > MTU 256
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Sender().Send(dgram); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().PacketsSeen < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	st := d.Stats()
	if st.PacketsTruncated != 1 || st.PacketsBad != 0 {
		t.Fatalf("oversized datagram not classified as truncated: %+v", st)
	}
}
