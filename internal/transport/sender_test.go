package transport

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"fecperf/internal/sched"
	"fecperf/internal/session"
	"fecperf/internal/wire"
)

func TestSenderCarouselRoundsAndInterleave(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	rx := hub.Receiver(nil, 65536)

	a := encodeTestObject(t, testFile(t, 8<<10, 1), 1, wire.CodeLDGMStaircase, 2.0, 512)
	b := encodeTestObject(t, testFile(t, 8<<10, 2), 2, wire.CodeLDGMStaircase, 2.0, 512)
	s := NewSender(hub.Sender(), SenderConfig{Rounds: 3, Scheduler: sched.TxModel4{}, Seed: 5})
	if err := s.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := s.Stats()
	wantPkts := uint64(3 * (a.N() + b.N()))
	if st.PacketsSent != wantPkts {
		t.Errorf("PacketsSent = %d, want %d", st.PacketsSent, wantPkts)
	}
	if st.Rounds != 3 {
		t.Errorf("Rounds = %d, want 3", st.Rounds)
	}

	// Every datagram must parse, and each round must deliver each
	// object's full packet set, interleaved (objects alternate while
	// both still have packets to send).
	rx.SetReadDeadline(time.Now().Add(100 * time.Millisecond)) //nolint:errcheck
	buf := make([]byte, 2048)
	counts := map[uint32]int{}
	var firstIDs []uint32
	for {
		n, err := rx.Recv(buf)
		if err != nil {
			break
		}
		p, err := wire.Decode(buf[:n])
		if err != nil {
			t.Fatalf("broadcast datagram does not parse: %v", err)
		}
		counts[p.ObjectID]++
		if len(firstIDs) < 10 {
			firstIDs = append(firstIDs, p.ObjectID)
		}
	}
	if counts[1] != 3*a.N() || counts[2] != 3*b.N() {
		t.Errorf("per-object counts = %v, want %d and %d", counts, 3*a.N(), 3*b.N())
	}
	for i := 0; i+1 < len(firstIDs); i += 2 {
		if firstIDs[i] == firstIDs[i+1] {
			t.Fatalf("objects not interleaved: first datagrams %v", firstIDs)
		}
	}
}

func TestSenderPacing(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	obj := encodeTestObject(t, testFile(t, 4<<10, 3), 9, wire.CodeLDGMStaircase, 2.0, 256)
	// ~48 packets at 400 pkt/s with burst 1 ≈ 120 ms.
	s := NewSender(hub.Sender(), SenderConfig{Rounds: 1, Rate: 400, Burst: 1, Seed: 1})
	if err := s.Add(obj); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	elapsed := time.Since(start)
	want := time.Duration(float64(obj.N()-1) / 400 * float64(time.Second))
	if elapsed < want/2 {
		t.Errorf("paced send of %d packets took %v, want ≥ %v", obj.N(), elapsed, want/2)
	}
}

func TestSenderGracefulCancel(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	obj := encodeTestObject(t, testFile(t, 16<<10, 4), 3, wire.CodeLDGMStaircase, 2.0, 512)
	s := NewSender(hub.Sender(), SenderConfig{Rate: 100, Seed: 1}) // Rounds: 0 = infinite
	if err := s.Add(obj); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Run(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want context.DeadlineExceeded", err)
	}
	if sent := s.Stats().PacketsSent; sent == 0 || sent >= uint64(obj.N()) {
		t.Errorf("PacketsSent = %d, want a partial round (0 < sent < %d)", sent, obj.N())
	}
}

func TestSenderRequiresObjects(t *testing.T) {
	s := NewSender(NewLoopback().Sender(), SenderConfig{})
	if err := s.Run(context.Background()); err == nil {
		t.Fatal("Run with no objects succeeded, want error")
	}
}

// TestSenderHonoursNSent verifies the carousel applies the object's
// Section-6 n_sent truncation to every round, matching Object.Send.
func TestSenderHonoursNSent(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	rx := hub.Receiver(nil, 4096)
	obj, err := session.EncodeObject(testFile(t, 8<<10, 6), session.SenderConfig{
		ObjectID:    4,
		Family:      wire.CodeLDGMStaircase,
		Ratio:       2.0,
		PayloadSize: 512,
		Seed:        3,
		NSent:       10,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSender(hub.Sender(), SenderConfig{Rounds: 2, Seed: 8})
	if err := s.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().PacketsSent; got != 20 {
		t.Errorf("PacketsSent = %d, want 20 (NSent=10 × 2 rounds)", got)
	}
	rx.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck
	buf := make([]byte, 2048)
	n := 0
	for {
		if _, err := rx.Recv(buf); err != nil {
			break
		}
		n++
	}
	if n != 20 {
		t.Errorf("received %d datagrams, want 20", n)
	}
}

// captureConn records every datagram written to it, in wire order.
type captureConn struct {
	frames  [][]byte
	batches int
}

func (c *captureConn) WriteBatch(batch []wire.Datagram) (int, error) {
	c.batches++
	for _, d := range batch {
		c.frames = append(c.frames, append([]byte(nil), d...))
	}
	return len(batch), nil
}
func (c *captureConn) ReadBatch([]wire.Datagram) (int, error) { return 0, ErrClosed }
func (c *captureConn) Recv([]byte) (int, error)               { return 0, ErrClosed }
func (c *captureConn) SetReadDeadline(time.Time) error        { return nil }
func (c *captureConn) Close() error                           { return nil }
func (c *captureConn) LocalAddr() string                      { return "capture" }

// TestSenderMidRoundResume verifies the carousel's resume contract:
// a sender restarted at (StartRound, StartPos) emits exactly the byte
// sequence the original run produced from that point on — schedules
// depend only on (Seed, round, object), never on carousel history.
func TestSenderMidRoundResume(t *testing.T) {
	a := encodeTestObject(t, testFile(t, 4<<10, 11), 1, wire.CodeLDGMStaircase, 2.0, 256)
	b := encodeTestObject(t, testFile(t, 2<<10, 12), 2, wire.CodeRSE, 1.5, 256)
	defer a.Close()
	defer b.Close()
	cfg := SenderConfig{Rounds: 3, Scheduler: sched.TxModel4{}, Seed: 99}

	run := func(cfg SenderConfig) [][]byte {
		t.Helper()
		conn := &captureConn{}
		s := NewSender(conn, cfg)
		if err := s.Add(a); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(b); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return conn.frames
	}

	full := run(cfg)

	// Count how many datagrams the full run emitted before round 1,
	// position 17, then resume there and compare the tails.
	resumed := cfg
	resumed.StartRound = 1
	resumed.StartPos = 17
	tail := run(resumed)

	// The prefix length: all of round 0 plus positions [0,17) of round
	// 1. Per round the two objects interleave round-robin, so recompute
	// by replaying the full stream: the resumed stream must equal the
	// full stream's suffix of the same length.
	if len(tail) >= len(full) {
		t.Fatalf("resumed run emitted %d datagrams, full run %d", len(tail), len(full))
	}
	skip := len(full) - len(tail)
	for i := range tail {
		if !bytes.Equal(tail[i], full[skip+i]) {
			t.Fatalf("resumed datagram %d differs from full-run datagram %d", i, skip+i)
		}
	}

	// And the resumed stream must genuinely start mid-round: it covers
	// rounds 1 and 2 minus the skipped positions — strictly between one
	// and two full rounds of datagrams.
	perRound := a.N() + b.N()
	if len(tail) <= perRound || len(tail) >= 2*perRound {
		t.Fatalf("resumed stream length %d not within (%d,%d)", len(tail), perRound, 2*perRound)
	}
}

// TestSenderLazyEncodingSharesNoBuffers ensures the scratch-buffer
// reuse cannot leak between packets: every captured datagram must
// decode to a distinct, consistent packet.
func TestSenderLazyEncodingSharesNoBuffers(t *testing.T) {
	obj := encodeTestObject(t, testFile(t, 4<<10, 13), 5, wire.CodeLDGMStaircase, 2.0, 512)
	conn := &captureConn{}
	s := NewSender(conn, SenderConfig{Rounds: 1, Seed: 4})
	if err := s.Add(obj); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	seen := map[uint32]bool{}
	for _, f := range conn.frames {
		p, err := wire.Decode(f)
		if err != nil {
			t.Fatalf("datagram does not parse: %v", err)
		}
		if seen[p.PacketID] {
			t.Fatalf("packet id %d emitted twice in one round", p.PacketID)
		}
		seen[p.PacketID] = true
	}
	if len(seen) != obj.N() {
		t.Fatalf("round covered %d distinct packets, want %d", len(seen), obj.N())
	}
}

// TestSenderRejectsClosedObject pins the ownership contract: an object
// closed before Add cannot be transmitted.
func TestSenderRejectsClosedObject(t *testing.T) {
	obj := encodeTestObject(t, testFile(t, 1<<10, 14), 6, wire.CodeLDGMStaircase, 2.0, 256)
	obj.Close()
	s := NewSender(&captureConn{}, SenderConfig{})
	if err := s.Add(obj); err == nil {
		t.Fatal("Add accepted a closed object")
	}
}

// TestSenderCloseWaitsForRun pins the lazy-encoding lifecycle: Close
// must synchronize with an in-flight Run, releasing the objects'
// pooled buffers only after the round loop can no longer encode from
// them. (Run under -race would flag any violation via the loopback.)
func TestSenderCloseWaitsForRun(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()
	obj := encodeTestObject(t, testFile(t, 8<<10, 21), 9, wire.CodeLDGMStaircase, 2.0, 512)
	s := NewSender(hub.Sender(), SenderConfig{Rate: 2000, Seed: 1}) // infinite carousel
	if err := s.Add(obj); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx) }()
	time.Sleep(30 * time.Millisecond) // let the carousel get going

	const cancelAfter = 30 * time.Millisecond
	go func() {
		time.Sleep(cancelAfter)
		cancel()
	}()
	start := time.Now()
	s.Close() // must block until cancellation stops Run
	if waited := time.Since(start); waited < cancelAfter/2 {
		t.Fatalf("Close returned after %v, before the carousel could have stopped", waited)
	}
	select {
	case err := <-runErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}
