package transport

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"fecperf/internal/obs"
	"fecperf/internal/symbol"
	"fecperf/internal/wire"
)

// --- the read side of the batch Conn contract, over both read paths ---

// readPaths runs f over a localhost socket pair twice: "gro" with the
// listening socket as ListenUDP opens it — skipped, not failed, where
// the kernel refuses UDP_GRO — and "nogro" with the option never asked
// for, the read path of a pre-5.0 kernel or a seccomp profile, which
// must behave exactly as it did before GRO existed here.
func readPaths(t *testing.T, f func(t *testing.T, rx, tx Conn, gro bool)) {
	for _, path := range []struct {
		name string
		gro  bool
	}{{"gro", true}, {"nogro", false}} {
		t.Run(path.name, func(t *testing.T) {
			rx, err := listenUDP("127.0.0.1:0", path.gro)
			if err != nil {
				t.Fatalf("listenUDP: %v", err)
			}
			t.Cleanup(func() { rx.Close() })
			if on := rx.(*udpConn).GROEnabled(); on != path.gro {
				if !path.gro {
					t.Fatal("GRO is on for a socket that never asked for it")
				}
				t.Skip("this kernel refuses UDP_GRO")
			}
			tx, err := DialUDP(rx.LocalAddr())
			if err != nil {
				t.Fatalf("DialUDP: %v", err)
			}
			t.Cleanup(func() { tx.Close() })
			rx.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
			f(t, rx, tx, path.gro)
		})
	}
}

// numbered returns count datagrams of size bytes, each carrying its
// index from first on in its first two bytes.
func numbered(first, count, size int) []wire.Datagram {
	batch := make([]wire.Datagram, count)
	for i := range batch {
		d := bytes.Repeat([]byte{0xA5}, size)
		d[0], d[1] = byte((first+i)>>8), byte(first+i)
		batch[i] = d
	}
	return batch
}

// readBufs returns n fresh read buffers of size bytes.
func readBufs(n, size int) []wire.Datagram {
	bufs := make([]wire.Datagram, n)
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	return bufs
}

func mustWriteBatch(t *testing.T, tx Conn, batch []wire.Datagram) {
	t.Helper()
	if n, err := tx.WriteBatch(batch); n != len(batch) || err != nil {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", n, err, len(batch))
	}
}

// mustReadNumbered reads one batch into n fresh buffers and checks the
// datagrams carry the indices next, next+1, … and are size bytes long.
func mustReadNumbered(t *testing.T, rx Conn, n, next, size int) int {
	t.Helper()
	bufs := readBufs(n, 2048)
	m, err := rx.ReadBatch(bufs)
	if err != nil || m == 0 {
		t.Fatalf("ReadBatch at datagram %d = %d, %v", next, m, err)
	}
	for i := 0; i < m; i++ {
		if len(bufs[i]) != size {
			t.Fatalf("datagram %d: %d bytes, want %d", next+i, len(bufs[i]), size)
		}
		if idx := int(bufs[i][0])<<8 | int(bufs[i][1]); idx != next+i {
			t.Fatalf("datagram %d carries index %d: order not preserved", next+i, idx)
		}
	}
	return m
}

// TestUDPBatchRoundTrip pushes a mixed-size batch (GSO can only coalesce
// equal-size runs, so this exercises singles on the plain-sendmmsg path,
// then run grouping — on a GRO socket, lone datagrams and then trains of
// three) through a socket pair and checks every datagram arrives intact
// and in order.
func TestUDPBatchRoundTrip(t *testing.T) {
	readPaths(t, func(t *testing.T, rx, tx Conn, _ bool) {
		var batch []wire.Datagram
		for i := 0; i < 150; i++ {
			size := 300 + 200*(i%3) // no two neighbours alike
			if i >= 75 {
				size = 300 + 200*(i/3%3) // runs of 3 equal-size datagrams
			}
			d := bytes.Repeat([]byte{byte(i)}, size)
			d[0] = byte(i >> 8)
			batch = append(batch, d)
		}
		mustWriteBatch(t, tx, batch)
		got := 0
		for got < len(batch) {
			bufs := readBufs(32, 2048)
			m, err := rx.ReadBatch(bufs)
			if err != nil {
				t.Fatalf("ReadBatch after %d datagrams: %v", got, err)
			}
			if m == 0 {
				t.Fatal("ReadBatch returned 0 with nil error")
			}
			for i := 0; i < m; i++ {
				want := batch[got+i]
				if !bytes.Equal(bufs[i], want) {
					t.Fatalf("datagram %d: got %d bytes (first %x), want %d bytes",
						got+i, len(bufs[i]), bufs[i][:2], len(want))
				}
			}
			got += m
		}
	})
}

// TestUDPBatchEqualSizeGSO sends more equal-size datagrams than one GSO
// super-datagram may carry, forcing the writer to split runs across
// headers and crossings, and verifies the original datagram boundaries
// come back — re-cut by the kernel, or by the conn out of the trains a
// GRO socket is handed.
func TestUDPBatchEqualSizeGSO(t *testing.T) {
	readPaths(t, func(t *testing.T, rx, tx Conn, _ bool) {
		const count, size = 300, 512
		mustWriteBatch(t, tx, numbered(0, count, size))
		for got := 0; got < count; {
			got += mustReadNumbered(t, rx, 64, got, size)
		}
	})
}

// TestUDPReadBatchTruncation checks ReadBatch truncates oversized
// datagrams to the caller's buffer exactly like Recv does, whether they
// arrive alone or as the segments of a train.
func TestUDPReadBatchTruncation(t *testing.T) {
	readPaths(t, func(t *testing.T, rx, tx Conn, _ bool) {
		if err := tx.Send(bytes.Repeat([]byte{7}, 1000)); err != nil {
			t.Fatal(err)
		}
		bufs := []wire.Datagram{make([]byte, 100)}
		n, err := rx.ReadBatch(bufs)
		if n != 1 || err != nil {
			t.Fatalf("ReadBatch = %d, %v", n, err)
		}
		if len(bufs[0]) != 100 {
			t.Fatalf("truncated read re-sliced to %d, want 100", len(bufs[0]))
		}

		mustWriteBatch(t, tx, numbered(0, 8, 1000))
		for got := 0; got < 8; {
			bufs := readBufs(8, 100)
			m, err := rx.ReadBatch(bufs)
			if err != nil {
				t.Fatalf("ReadBatch after %d segments: %v", got, err)
			}
			for i := 0; i < m; i++ {
				if len(bufs[i]) != 100 || int(bufs[i][1]) != got+i {
					t.Fatalf("segment %d: %d bytes, index %d; want its first 100", got+i, len(bufs[i]), bufs[i][1])
				}
			}
			got += m
		}
		buf := make([]byte, 100)
		if err := tx.Send(bytes.Repeat([]byte{9}, 1000)); err != nil {
			t.Fatal(err)
		}
		if n, err := rx.Recv(buf); n != 100 || err != nil {
			t.Fatalf("Recv of an oversized datagram = %d, %v; want 100, nil", n, err)
		}
	})
}

// TestUDPBatchDeadline checks ReadBatch honours the read deadline with a
// timeout net.Error, like Recv.
func TestUDPBatchDeadline(t *testing.T) {
	readPaths(t, func(t *testing.T, rx, _ Conn, _ bool) {
		rx.SetReadDeadline(time.Now().Add(20 * time.Millisecond)) //nolint:errcheck
		bufs := []wire.Datagram{make([]byte, 64)}
		n, err := rx.ReadBatch(bufs)
		if n != 0 || !isTimeout(err) {
			t.Fatalf("ReadBatch past deadline = %d, %v; want 0 and a timeout", n, err)
		}
		if n, err := rx.Recv(bufs[0]); n != 0 || !isTimeout(err) {
			t.Fatalf("Recv past deadline = %d, %v; want 0 and a timeout", n, err)
		}
	})
}

// TestUDPReadBatchCarryOver reads a 32-datagram train through 10
// buffers: every datagram comes back once, in order, across calls. On
// a GRO socket the calls after the first are fed from what the first
// crossing left behind — they return it even with the read deadline
// long past, which no call that went to the socket could — and the
// deadline bites again the moment the remainder is gone.
func TestUDPReadBatchCarryOver(t *testing.T) {
	readPaths(t, func(t *testing.T, rx, tx Conn, gro bool) {
		const count, size = 32, 600
		mustWriteBatch(t, tx, numbered(0, count, size))
		trains := gro && tx.(*udpConn).GSOEnabled()
		got := mustReadNumbered(t, rx, 10, 0, size)
		if trains {
			if got != 10 {
				t.Fatalf("first read of a train = %d datagrams, want the 10 there were buffers for", got)
			}
			rx.SetReadDeadline(time.Now().Add(-time.Second)) //nolint:errcheck
		}
		for calls := 1; got < count; calls++ {
			m := mustReadNumbered(t, rx, 10, got, size)
			if want := min(10, count-got); trains && m != want {
				t.Fatalf("call %d returned %d carried-over datagrams, want %d", calls, m, want)
			}
			got += m
		}
		if !trains {
			return
		}
		if n, err := rx.ReadBatch(readBufs(10, 2048)); n != 0 || !isTimeout(err) {
			t.Fatalf("ReadBatch with nothing carried over and the deadline past = %d, %v; want a timeout", n, err)
		}
		rx.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		mustWriteBatch(t, tx, numbered(count, count, size))
		for got < 2*count {
			got += mustReadNumbered(t, rx, 10, got, size)
		}
	})
}

// TestUDPReadZeroLengthDatagram: an empty datagram is a datagram — it
// fills a buffer with zero bytes and keeps its place in the order.
func TestUDPReadZeroLengthDatagram(t *testing.T) {
	readPaths(t, func(t *testing.T, rx, tx Conn, _ bool) {
		mustWriteBatch(t, tx, []wire.Datagram{{}, {1}, {}, {2, 2}})
		var lens []int
		for len(lens) < 4 {
			bufs := readBufs(4, 64)
			m, err := rx.ReadBatch(bufs)
			if err != nil {
				t.Fatalf("ReadBatch after %v: %v", lens, err)
			}
			for _, b := range bufs[:m] {
				lens = append(lens, len(b))
			}
		}
		if want := []int{0, 1, 0, 2}; !slices.Equal(lens, want) {
			t.Fatalf("datagram lengths %v, want %v", lens, want)
		}
		if err := tx.Send(nil); err != nil {
			t.Fatal(err)
		}
		if n, err := rx.Recv(make([]byte, 8)); n != 0 || err != nil {
			t.Fatalf("Recv of an empty datagram = %d, %v; want 0, nil", n, err)
		}
	})
}

// TestUDPRecvInterleavedWithReadBatch alternates the two read calls over
// one train: Recv takes the datagram after the ones ReadBatch returned,
// not the head of the next message.
func TestUDPRecvInterleavedWithReadBatch(t *testing.T) {
	readPaths(t, func(t *testing.T, rx, tx Conn, _ bool) {
		const count, size = 40, 700
		mustWriteBatch(t, tx, numbered(0, count, size))
		buf := make([]byte, 2048)
		for got := 0; got < count; {
			got += mustReadNumbered(t, rx, 5, got, size)
			if got == count {
				break
			}
			n, err := rx.Recv(buf)
			if err != nil || n != size {
				t.Fatalf("Recv at datagram %d = %d, %v", got, n, err)
			}
			if idx := int(buf[0])<<8 | int(buf[1]); idx != got {
				t.Fatalf("Recv returned datagram %d, want %d", idx, got)
			}
			got++
		}
	})
}

// TestUDPReadBatchUncoalesced sends one datagram per write, so every
// message the receiver is handed is one datagram whatever the socket
// asked for. A read must still drain several of them per crossing: with
// 16 queued the first ReadBatch(16) returns more than one, and within a
// few reads one call returns all 16 — a receiver with a single train
// buffer would be back to a crossing per datagram.
func TestUDPReadBatchUncoalesced(t *testing.T) {
	readPaths(t, func(t *testing.T, rx, tx Conn, _ bool) {
		const count, size = 16, 400
		most := 0
		for round := 0; round < 4; round++ {
			for _, d := range numbered(round*count, count, size) {
				if err := tx.Send(d); err != nil {
					t.Fatal(err)
				}
			}
			// Loopback delivery is synchronous: all 16 are queued.
			for got := 0; got < count; {
				m := mustReadNumbered(t, rx, count, round*count+got, size)
				if round == 0 && got == 0 && m < 2 {
					t.Fatalf("first ReadBatch(16) over 16 queued datagrams returned %d", m)
				}
				most = max(most, m)
				got += m
			}
		}
		if most != count {
			t.Fatalf("no ReadBatch(16) ever returned 16 queued datagrams (most %d)", most)
		}
	})
}

// TestUDPReadBatchTrainBuffers: a socket fed only trains — full ones,
// or so short that eight fit the caller's batch — holds at most two
// train buffers however long it runs and however many trains queue up
// behind a read, and Close returns them to the symbol pool.
func TestUDPReadBatchTrainBuffers(t *testing.T) {
	readPaths(t, func(t *testing.T, rx, tx Conn, gro bool) {
		live := symbol.PoolStats().Live
		const bufs, size = 32, 1064
		next := 0
		for round := 0; round < 60; round++ {
			train := bufs
			if round >= 30 {
				train = bufs / 8
			}
			queued := 1 + round%5 // trains behind one read
			for i := 0; i < queued; i++ {
				mustWriteBatch(t, tx, numbered(next+i*train, train, size))
			}
			for end := next + queued*train; next < end; {
				next += mustReadNumbered(t, rx, bufs, next, size)
			}
		}
		held := symbol.PoolStats().Live - live
		switch {
		case !gro && held != 0:
			t.Fatalf("a socket without GRO holds %d pooled buffers", held)
		case gro && (held < 1 || held > 2):
			t.Fatalf("a GRO socket fed only trains holds %d train buffers, want 1 or 2", held)
		}
		rx.Close()
		if now := symbol.PoolStats().Live; now != live {
			t.Fatalf("%d pooled buffers still out after Close", now-live)
		}
	})
}

// TestUDPCloseWhileBlocked: Close wakes a reader parked in ReadBatch
// with ErrClosed, takes back the train buffers — those holding a
// carried-over remainder too — and later reads fail the same way.
func TestUDPCloseWhileBlocked(t *testing.T) {
	readPaths(t, func(t *testing.T, rx, tx Conn, _ bool) {
		live := symbol.PoolStats().Live
		mustWriteBatch(t, tx, numbered(0, 32, 500))
		for got := 0; got < 32; {
			got += mustReadNumbered(t, rx, 10, got, 500)
		}
		rx.SetReadDeadline(time.Time{}) //nolint:errcheck
		blocked := make(chan error, 1)
		go func() {
			_, err := rx.ReadBatch(readBufs(10, 2048))
			blocked <- err
		}()
		time.Sleep(20 * time.Millisecond)
		rx.Close()
		select {
		case err := <-blocked:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("blocked ReadBatch after Close = %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not unblock ReadBatch")
		}
		if now := symbol.PoolStats().Live; now != live {
			t.Fatalf("%d pooled buffers still out after Close", now-live)
		}
		if n, err := rx.ReadBatch(readBufs(1, 64)); n != 0 || !errors.Is(err, ErrClosed) {
			t.Fatalf("ReadBatch on a closed conn = %d, %v; want ErrClosed", n, err)
		}
		if n, err := rx.Recv(make([]byte, 64)); n != 0 || !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv on a closed conn = %d, %v; want ErrClosed", n, err)
		}
	})
	// Close with part of a train still waiting for its reader.
	readPaths(t, func(t *testing.T, rx, tx Conn, _ bool) {
		live := symbol.PoolStats().Live
		mustWriteBatch(t, tx, numbered(0, 32, 500))
		mustReadNumbered(t, rx, 10, 0, 500)
		rx.Close()
		if n, err := rx.ReadBatch(readBufs(10, 2048)); n != 0 || !errors.Is(err, ErrClosed) {
			t.Fatalf("ReadBatch on a closed conn = %d, %v; want ErrClosed", n, err)
		}
		if now := symbol.PoolStats().Live; now != live {
			t.Fatalf("%d pooled buffers still out after Close", now-live)
		}
	})
}

// TestUDPBatchCrossingsAllocFree: a steady-state write crossing and the
// reads that drain it allocate nothing on either read path.
func TestUDPBatchCrossingsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	readPaths(t, func(t *testing.T, rx, tx Conn, _ bool) {
		rx.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
		out := numbered(0, 32, 1024)
		backing := make([]byte, 32*2048)
		in := make([]wire.Datagram, 32)
		allocs := testing.AllocsPerRun(100, func() {
			if n, err := tx.WriteBatch(out); n != len(out) || err != nil {
				t.Fatalf("WriteBatch = %d, %v", n, err)
			}
			for got := 0; got < len(out); {
				for i := range in {
					in[i] = backing[i*2048 : (i+1)*2048]
				}
				m, err := rx.ReadBatch(in)
				if err != nil {
					t.Fatalf("ReadBatch after %d: %v", got, err)
				}
				got += m
			}
		})
		if allocs != 0 {
			t.Fatalf("WriteBatch(32 x 1 KiB) + ReadBatch allocates %.1f times per round, want 0", allocs)
		}
	})
}

// TestReceiverDaemonCountsTruncatedTrain runs the daemon with an MTU
// below the datagram size over a real socket: every segment of a train
// fills its MTU+1 buffer, so each is counted as truncated — never as
// corrupt, and never as one oversized datagram — and the daemon says
// which read path its conn is on.
func TestReceiverDaemonCountsTruncatedTrain(t *testing.T) {
	readPaths(t, func(t *testing.T, rx, tx Conn, gro bool) {
		reg := obs.NewRegistry("fecperf")
		d := NewReceiverDaemon(rx, ReceiverConfig{MTU: 512, Metrics: reg})
		stop := runDaemon(t, d)
		defer stop()
		mustWriteBatch(t, tx, numbered(0, 32, 1064))
		deadline := time.Now().Add(5 * time.Second)
		for d.Stats().PacketsSeen < 32 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		stop()
		st := d.Stats()
		if st.PacketsSeen != 32 || st.PacketsTruncated != 32 || st.PacketsBad != 0 {
			t.Fatalf("seen %d, truncated %d, bad %d; want 32, 32, 0", st.PacketsSeen, st.PacketsTruncated, st.PacketsBad)
		}
		if st.BytesSeen != 32*513 {
			t.Fatalf("BytesSeen = %d, want 32 reads of MTU+1 = %d", st.BytesSeen, 32*513)
		}
		want := int64(0)
		if gro {
			want = 1
		}
		if v, ok := reg.GaugeValue("receiver_gro_enabled", nil); !ok || v != want {
			t.Fatalf("receiver_gro_enabled = %d (registered %v), want %d", v, ok, want)
		}
	})
}

// TestReceiverDaemonCancelWithCarryOver cancels a daemon whose conn
// still holds part of a train: Run hands up what was carried over and
// returns the context's error.
func TestReceiverDaemonCancelWithCarryOver(t *testing.T) {
	readPaths(t, func(t *testing.T, rx, tx Conn, _ bool) {
		mustWriteBatch(t, tx, numbered(0, 32, 300))
		mustReadNumbered(t, rx, 4, 0, 300)
		d := NewReceiverDaemon(rx, ReceiverConfig{ReadBatch: 4})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		done := make(chan error, 1)
		go func() { done <- d.Run(ctx) }()
		select {
		case err := <-done:
			if err != context.Canceled {
				t.Fatalf("Run = %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a cancelled daemon did not return")
		}
	})
}
