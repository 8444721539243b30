package transport

import (
	"bytes"
	"context"
	"testing"
	"time"

	"fecperf/internal/channel"
	"fecperf/internal/sched"
	"fecperf/internal/wire"
)

// TestBroadcastGilbertMidCarouselJoin is the acceptance scenario for the
// transport subsystem: a 128 KiB file is FEC-encoded with LDGM-Staircase,
// scheduled with Tx_model_4, and carouselled over the in-memory backend
// behind a Gilbert(p=0.01, q=0.5) loss process. The receiver joins only
// after a third of the first round is already gone and must still
// reconstruct the file byte-identically — the paper's FLUTE/ALC late-join
// property carried over a live (if in-process) network.
func TestBroadcastGilbertMidCarouselJoin(t *testing.T) {
	hub := NewLoopback()
	defer hub.Close()

	file := testFile(t, 128<<10, 99)
	obj := encodeTestObject(t, file, 7, wire.CodeLDGMStaircase, 2.5, 1024)

	// The receiver's conn is attached only mid-carousel: datagrams
	// broadcast before that are lost to it, exactly like a late join.
	joinAfter := obj.N() / 3
	joined := make(chan struct{})
	s := NewSender(&joinTap{Conn: hub.Sender(), after: joinAfter, joined: joined},
		SenderConfig{Scheduler: sched.TxModel4{}, Seed: 12, Rate: 0})
	if err := s.Add(obj); err != nil {
		t.Fatal(err)
	}

	senderCtx, stopSender := context.WithCancel(context.Background())
	defer stopSender()
	senderDone := make(chan error, 1)
	go func() { senderDone <- s.Run(senderCtx) }() // Rounds=0: infinite carousel

	<-joined
	g := channel.NewGilbert(0.01, 0.5, newTestRand(77))
	d := NewReceiverDaemon(hub.Receiver(g, 1<<16), ReceiverConfig{})
	stop := runDaemon(t, d)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	data, err := d.WaitObject(ctx, 7)
	if err != nil {
		t.Fatalf("late-joining receiver never completed: %v (stats %+v)", err, d.Stats())
	}
	if !bytes.Equal(data, file) {
		t.Fatal("reconstructed file differs from the original")
	}
	stopSender()
	if err := <-senderDone; err != context.Canceled {
		t.Fatalf("sender Run = %v, want context.Canceled", err)
	}

	st := d.Stats()
	if st.ObjectsDecoded != 1 {
		t.Errorf("ObjectsDecoded = %d, want 1", st.ObjectsDecoded)
	}
	t.Logf("late join after %d datagrams; receiver saw %d, ingested %d (inefficiency %.3f)",
		joinAfter, st.PacketsSeen, st.PacketsIngested, float64(st.PacketsIngested)/float64(obj.K()))
}

// joinTap wraps the loopback sender and signals once `after` datagrams
// have been broadcast, so the test can attach a receiver mid-carousel.
type joinTap struct {
	Conn
	after  int
	sent   int
	joined chan struct{}
}

func (j *joinTap) WriteBatch(batch []wire.Datagram) (int, error) {
	n, err := j.Conn.WriteBatch(batch)
	for range batch {
		j.sent++
		if j.sent == j.after {
			close(j.joined)
		}
		if j.sent%256 == 0 {
			// Yield so the (possibly single-CPU) receiver goroutine drains
			// its queue; a real sender would be paced by Rate instead.
			time.Sleep(time.Millisecond)
		}
	}
	return n, err
}
