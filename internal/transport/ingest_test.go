package transport

import (
	"bytes"
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"fecperf/internal/channel"
	"fecperf/internal/session"
	"fecperf/internal/symbol"
	"fecperf/internal/wire"
)

// replayConn serves a recorded datagram sequence to ReadBatch, as many
// per call as the caller has buffers for, and reports ErrClosed once it
// is spent or a read deadline has been armed (how Run's cancellation
// unblocks a read). Each datagram is copied into the caller's buffer,
// cut to its length as a socket read would.
type replayConn struct {
	datagrams [][]byte
	next      int
	stopped   atomic.Bool
}

func (c *replayConn) ReadBatch(bufs []wire.Datagram) (int, error) {
	if c.next == len(c.datagrams) || c.stopped.Load() {
		return 0, ErrClosed
	}
	n := 0
	for ; n < len(bufs) && c.next < len(c.datagrams); n++ {
		bufs[n] = bufs[n][:copy(bufs[n], c.datagrams[c.next])]
		c.next++
	}
	return n, nil
}

func (c *replayConn) Recv(b []byte) (int, error) {
	bufs := []wire.Datagram{b}
	if _, err := c.ReadBatch(bufs); err != nil {
		return 0, err
	}
	return len(bufs[0]), nil
}

func (c *replayConn) WriteBatch(batch []wire.Datagram) (int, error) { return len(batch), nil }
func (c *replayConn) Send([]byte) error                             { return nil }
func (c *replayConn) SetReadDeadline(time.Time) error               { c.stopped.Store(true); return nil }
func (c *replayConn) Close() error                                  { return nil }
func (c *replayConn) LocalAddr() string                             { return "replay" }

// lossyTrain returns obj's datagrams in one tx4 pass through a
// Gilbert(0.05, 0.5) channel (9 % loss), split where the object
// completes: the datagrams before the one that decodes it, that one,
// and the late ones after.
func lossyTrain(t *testing.T, obj *session.Object, seed int64) (before [][]byte, last []byte, late [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ch := channel.NewGilbert(0.05, 0.5, rng)
	var sent [][]byte
	if err := obj.Send(rng, func(d []byte) error {
		if !ch.Lost() {
			sent = append(sent, d)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rx := session.NewReceiver()
	for i, d := range sent {
		if _, done, _, err := rx.Ingest(d); err != nil {
			t.Fatal(err)
		} else if done {
			return sent[:i], d, sent[i+1:]
		}
	}
	t.Fatalf("object %d does not decode from its lossy pass", obj.ObjectID())
	return nil, nil, nil
}

// TestReceiverDaemonBatchMatchesSingle feeds one datagram sequence to
// daemons reading 1 and 64 datagrams per ReadBatch: two objects (LDGM
// at 128-byte symbols, Reed-Solomon at 256) through a 9 % lossy tx4
// pass, interleaved so that both complete inside one 64-datagram batch,
// with a forged header for an in-flight object (fresh seed, valid CRC), a
// bit-flipped header, a datagram over the MTU, late datagrams and
// duplicates among them. Stats, the order and bytes of OnComplete,
// Object and WaitObject must be identical, and every slab must be back in
// the pool at the end.
func TestReceiverDaemonBatchMatchesSingle(t *testing.T) {
	fileA, fileB := testFile(t, 40<<10, 1), testFile(t, 30<<10, 2)
	objA := encodeTestObject(t, fileA, 501, wire.CodeLDGMStaircase, 1.5, 128)
	objB := encodeTestObject(t, fileB, 502, wire.CodeRSE, 1.5, 256)
	preA, lastA, lateA := lossyTrain(t, objA, 3)
	preB, lastB, lateB := lossyTrain(t, objB, 4)
	objA.Close()
	objB.Close()

	forged, err := wire.Decode(preA[1])
	if err != nil {
		t.Fatal(err)
	}
	forged.Seed ^= 1
	forgedDatagram, err := forged.Encode()
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), preB[1]...) // checked against B's header
	flipped[15] ^= 0x01
	flippedN := append([]byte(nil), preB[1]...) // falls back to the full check
	flippedN[21] ^= 0x10
	oversize := append(append([]byte(nil), preA[2]...), make([]byte, 2100)...)

	var seq [][]byte
	for i := 0; i < max(len(preA), len(preB)); i++ {
		if i < len(preA) {
			seq = append(seq, preA[i])
		}
		if i < len(preB) {
			seq = append(seq, preB[i])
		}
		switch i {
		case 5:
			seq = append(seq, forgedDatagram, flipped)
		case 9:
			seq = append(seq, oversize, preA[0]) // and a duplicate
		}
	}
	for len(seq)%64 != 0 { // pad with duplicates up to a batch boundary
		seq = append(seq, preB[len(seq)%len(preB)])
	}
	final := len(seq) / 64 // the batch both objects complete in
	seq = append(seq, lastA, preA[3], flippedN, lateA[0], lastB, lateB[0], lastA)
	seq = append(seq, lateA[1:]...)
	seq = append(seq, lateB[1:]...)

	type completion struct {
		id    uint32
		data  []byte
		batch uint64
	}
	start := symbol.PoolStats().Live
	run := func(readBatch int) (Stats, []completion, [2][]byte) {
		var done []completion
		var d *ReceiverDaemon
		d = NewReceiverDaemon(&replayConn{datagrams: seq}, ReceiverConfig{
			ReadBatch: readBatch,
			OnComplete: func(id uint32, data []byte) {
				done = append(done, completion{id, data, d.readBatches.Load()})
			},
		})
		if err := d.Run(context.Background()); err != nil {
			t.Fatalf("batch %d: Run: %v", readBatch, err)
		}
		var objects [2][]byte
		for i, id := range []uint32{501, 502} {
			held, ok := d.Object(id)
			waited, err := d.WaitObject(context.Background(), id)
			if !ok || err != nil || !bytes.Equal(held, waited) {
				t.Fatalf("batch %d: object %d: Object held %v, WaitObject %v", readBatch, id, ok, err)
			}
			objects[i] = held
		}
		return d.Stats(), done, objects
	}
	stats1, done1, objects1 := run(1)
	stats64, done64, objects64 := run(64)

	if stats1 != stats64 {
		t.Errorf("stats differ:\nbatch 1:  %+v\nbatch 64: %+v", stats1, stats64)
	}
	if len(done1) != 2 || len(done64) != 2 {
		t.Fatalf("OnComplete ran %d and %d times, want 2", len(done1), len(done64))
	}
	for i := range done1 {
		if done1[i].id != done64[i].id || !bytes.Equal(done1[i].data, done64[i].data) {
			t.Errorf("completion %d: object %d at batch 1, %d at batch 64, or their bytes differ", i, done1[i].id, done64[i].id)
		}
	}
	if done64[0].batch != uint64(final+1) || done64[1].batch != uint64(final+1) {
		t.Errorf("at batch 64 the objects completed in reads %d and %d, want both in read %d", done64[0].batch, done64[1].batch, final+1)
	}
	for _, objects := range [][2][]byte{objects1, objects64} {
		if !bytes.Equal(objects[0], fileA) || !bytes.Equal(objects[1], fileB) {
			t.Error("decoded objects differ from the originals")
		}
	}
	want := Stats{PacketsBad: 2, PacketsInconsistent: 1, PacketsTruncated: 1, ObjectsStarted: 2, ObjectsDecoded: 2}
	if stats1.PacketsBad != want.PacketsBad || stats1.PacketsInconsistent != want.PacketsInconsistent ||
		stats1.PacketsTruncated != want.PacketsTruncated || stats1.ObjectsDecoded != want.ObjectsDecoded ||
		stats1.ObjectsStarted != want.ObjectsStarted || stats1.PacketsSeen != uint64(len(seq)) ||
		stats1.PacketsLate != uint64(len(lateA)+len(lateB)+2) || stats1.PacketsDuplicate == 0 {
		t.Errorf("stats %+v do not count the sequence's %d datagrams as built", stats1, len(seq))
	}
	if live := symbol.PoolStats().Live - start; live != 0 {
		t.Errorf("%d pooled buffers still live after both daemons finished", live)
	}
}

// TestIngestStateSizes pins the per-object state the batch ingest keeps:
// the reassembly stores its header template in place of its OTI fields
// and stays in the 112-byte size class, and the table entry stays at 64
// bytes.
func TestIngestStateSizes(t *testing.T) {
	if size := unsafe.Sizeof(session.Reassembly{}); size > 112 {
		t.Errorf("session.Reassembly is %d bytes, want <= 112", size)
	}
	if size := unsafe.Sizeof(entry{}); size != 64 {
		t.Errorf("entry is %d bytes, want 64", size)
	}
}
