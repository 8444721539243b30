package fecperf

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"
)

// TestBroadcastDaemonFacade drives the daemon through the public
// facade only: an in-memory loopback as the destination group, one
// carousel cast added from a parsed spec line, a weight reload, and a
// graceful drain.
func TestBroadcastDaemonFacade(t *testing.T) {
	hub := NewLoopback()
	rd := NewReceiverDaemon(hub.Receiver(nil, 1<<15), ReceiverDaemonConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go rd.Run(ctx)

	d := NewBroadcastDaemon(BroadcastDaemonConfig{
		Rate: 100_000,
		Dial: func(addr string) (TransportConn, error) { return hub.Sender(), nil },
	})
	defer d.Close()

	cs, err := ParseCastSpec("name=docs,addr=group:1,object=9,seed=4,codec=rse(ratio=2)")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Mode != CastModeCarousel {
		t.Fatalf("default mode = %q, want %q", cs.Mode, CastModeCarousel)
	}
	payload := bytes.Repeat([]byte("facade cast! "), 2000)
	cs.Data = payload
	if err := d.AddCast(cs); err != nil {
		t.Fatal(err)
	}

	got, err := rd.WaitObject(ctx, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("decoded bytes differ")
	}

	next := cs
	next.Weight = 5
	if err := d.Reload("docs", next); err != nil {
		t.Fatal(err)
	}
	st, ok := d.CastStatus("docs")
	if !ok || st.State != CastStateRunning {
		t.Fatalf("status = %+v, ok=%t", st, ok)
	}
	if err := d.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if len(d.Casts()) != 0 {
		t.Fatal("casts survived the drain")
	}
}

// TestWithPacerSharesOneBudget paces two facade broadcasters from one
// SharedPacer and checks the aggregate honours the global rate — the
// WithPacer/Config.Pacer path through the public constructors.
func TestWithPacerSharesOneBudget(t *testing.T) {
	hub := NewLoopback()
	sink := hub.Receiver(nil, 1<<15)
	go func() {
		buf := make([]byte, 2048)
		for {
			if _, err := sink.Recv(buf); err != nil {
				return
			}
		}
	}()

	sp := NewSharedPacer(2000, 16)
	data := bytes.Repeat([]byte("x"), 8<<10)
	run := func(share *PacerShare, id uint32) *Broadcaster {
		obj, err := NewObject(data, WithSpec(fmt.Sprintf("object=%d,codec=rse(ratio=1.5)", id)))
		if err != nil {
			t.Fatal(err)
		}
		s := NewBroadcaster(hub.Sender(), BroadcasterConfig{Pacer: share, Rounds: 4})
		if err := s.Add(obj); err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := run(sp.AddShare(1), 1)
	b := run(sp.AddShare(1), 2)
	defer a.Close()
	defer b.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	done := make(chan error, 2)
	go func() { done <- a.Run(ctx) }()
	go func() { done <- b.Run(ctx) }()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	total := a.Stats().PacketsSent + b.Stats().PacketsSent
	// Two senders on one 2000 pkt/s budget: the wall-clock floor is the
	// aggregate rate, not each sender's own.
	floor := time.Duration(float64(total-64)/2000*float64(time.Second)) * 9 / 10
	if elapsed < floor {
		t.Fatalf("%d packets in %v: shared budget not enforced (floor %v)", total, elapsed, floor)
	}
}
