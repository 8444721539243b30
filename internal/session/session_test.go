package session

import (
	"bytes"
	"math/rand"
	"testing"

	"fecperf/internal/channel"
	"fecperf/internal/sched"
	"fecperf/internal/wire"
)

func testObject(size int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, size)
	rng.Read(data)
	return data
}

func baseConfig(f wire.CodeFamily) SenderConfig {
	return SenderConfig{
		ObjectID:    1,
		Family:      f,
		Ratio:       1.5,
		PayloadSize: 64,
		Seed:        42,
	}
}

func allFamilies() []wire.CodeFamily {
	return []wire.CodeFamily{wire.CodeRSE, wire.CodeLDGM, wire.CodeLDGMStaircase, wire.CodeLDGMTriangle}
}

func TestEncodeObjectValidation(t *testing.T) {
	if _, err := EncodeObject(nil, baseConfig(wire.CodeRSE)); err == nil {
		t.Fatal("accepted empty object")
	}
	cfg := baseConfig(wire.CodeRSE)
	cfg.PayloadSize = 0
	if _, err := EncodeObject([]byte{1}, cfg); err == nil {
		t.Fatal("accepted zero payload size")
	}
	cfg = baseConfig(wire.CodeInvalid)
	if _, err := EncodeObject([]byte{1, 2, 3}, cfg); err == nil {
		t.Fatal("accepted invalid family")
	}
}

func TestLosslessDeliveryAllFamilies(t *testing.T) {
	obj := testObject(10_000, 1)
	for _, f := range allFamilies() {
		cfg := baseConfig(f)
		enc, err := EncodeObject(obj, cfg)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		rx := NewReceiver()
		var got []byte
		err = enc.Send(rand.New(rand.NewSource(2)), func(d []byte) error {
			_, complete, data, err := rx.Ingest(d)
			if err != nil {
				return err
			}
			if complete {
				got = data
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if !bytes.Equal(got, obj) {
			t.Fatalf("%v: reconstructed object differs", f)
		}
	}
}

func TestDeliveryOverLossyChannel(t *testing.T) {
	obj := testObject(20_000, 3)
	for _, f := range []wire.CodeFamily{wire.CodeRSE, wire.CodeLDGMStaircase, wire.CodeLDGMTriangle} {
		cfg := baseConfig(f)
		cfg.Ratio = 2.5
		if f == wire.CodeRSE {
			cfg.Scheduler = sched.TxModel5{} // interleave RSE, per the paper
		}
		enc, err := EncodeObject(obj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ch := channel.NewGilbert(0.05, 0.5, rand.New(rand.NewSource(7)))
		rx := NewReceiver()
		var got []byte
		err = enc.Send(rand.New(rand.NewSource(8)), func(d []byte) error {
			if ch.Lost() {
				return nil
			}
			_, complete, data, err := rx.Ingest(d)
			if err != nil {
				return err
			}
			if complete {
				got = data
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, obj) {
			t.Fatalf("%v: object not reconstructed over lossy channel", f)
		}
	}
}

func TestTinyObjectSingleSymbol(t *testing.T) {
	obj := []byte("hi")
	cfg := baseConfig(wire.CodeLDGMStaircase)
	enc, err := EncodeObject(obj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rx := NewReceiver()
	var got []byte
	if err := enc.Send(rand.New(rand.NewSource(1)), func(d []byte) error {
		_, c, data, err := rx.Ingest(d)
		if c {
			got = data
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatalf("got %q, want %q", got, obj)
	}
}

func TestMultiplexedObjects(t *testing.T) {
	// Two interleaved objects on one receiver.
	a := testObject(5000, 10)
	b := testObject(7000, 11)
	cfgA := baseConfig(wire.CodeLDGMTriangle)
	cfgA.ObjectID = 100
	cfgB := baseConfig(wire.CodeRSE)
	cfgB.ObjectID = 200

	encA, err := EncodeObject(a, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	encB, err := EncodeObject(b, cfgB)
	if err != nil {
		t.Fatal(err)
	}

	var stream [][]byte
	collect := func(d []byte) error { stream = append(stream, d); return nil }
	if err := encA.Send(rand.New(rand.NewSource(1)), collect); err != nil {
		t.Fatal(err)
	}
	if err := encB.Send(rand.New(rand.NewSource(2)), collect); err != nil {
		t.Fatal(err)
	}
	// Interleave the two transmissions.
	rand.New(rand.NewSource(3)).Shuffle(len(stream), func(i, j int) {
		stream[i], stream[j] = stream[j], stream[i]
	})

	rx := NewReceiver()
	for _, d := range stream {
		if _, _, _, err := rx.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	gotA, okA := rx.Object(100)
	gotB, okB := rx.Object(200)
	if !okA || !okB {
		t.Fatalf("objects complete: A=%v B=%v", okA, okB)
	}
	if !bytes.Equal(gotA, a) || !bytes.Equal(gotB, b) {
		t.Fatal("multiplexed objects corrupted")
	}
}

func TestIngestRejectsGarbage(t *testing.T) {
	rx := NewReceiver()
	if _, _, _, err := rx.Ingest([]byte("not a datagram at all..........................................")); err == nil {
		t.Fatal("garbage ingested without error")
	}
	if _, _, _, err := rx.Ingest(nil); err == nil {
		t.Fatal("nil datagram ingested")
	}
}

func TestIngestInconsistentOTI(t *testing.T) {
	obj := testObject(3000, 5)
	enc, err := EncodeObject(obj, baseConfig(wire.CodeLDGMStaircase))
	if err != nil {
		t.Fatal(err)
	}
	d0, err := enc.Datagram(0)
	if err != nil {
		t.Fatal(err)
	}
	rx := NewReceiver()
	if _, _, _, err := rx.Ingest(d0); err != nil {
		t.Fatal(err)
	}
	// Forge a datagram with the same object ID but different geometry.
	forged := wire.Packet{
		Family: wire.CodeLDGMStaircase, ObjectID: 1, PacketID: 0,
		K: 9, N: 18, Seed: 42, Payload: make([]byte, 64),
	}
	raw, err := forged.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := rx.Ingest(raw); err == nil {
		t.Fatal("inconsistent OTI accepted")
	}
}

func TestDuplicateAndPostCompletionDatagrams(t *testing.T) {
	obj := testObject(4000, 6)
	enc, err := EncodeObject(obj, baseConfig(wire.CodeLDGMStaircase))
	if err != nil {
		t.Fatal(err)
	}
	rx := NewReceiver()
	var datagrams [][]byte
	if err := enc.Send(rand.New(rand.NewSource(1)), func(d []byte) error {
		datagrams = append(datagrams, append([]byte(nil), d...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Deliver everything twice; completion must happen exactly once.
	completions := 0
	for pass := 0; pass < 2; pass++ {
		for _, d := range datagrams {
			_, complete, _, err := rx.Ingest(d)
			if err != nil {
				t.Fatal(err)
			}
			if complete {
				completions++
			}
		}
	}
	if completions != 1 {
		t.Fatalf("object completed %d times, want 1", completions)
	}
}

func TestNSentTruncationInSend(t *testing.T) {
	obj := testObject(4000, 7)
	cfg := baseConfig(wire.CodeLDGMStaircase)
	cfg.NSent = 10
	enc, err := EncodeObject(obj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := enc.Send(rand.New(rand.NewSource(1)), func([]byte) error {
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("sent %d datagrams, want 10", count)
	}
}

func TestPacketsIngestedProgress(t *testing.T) {
	obj := testObject(4000, 8)
	enc, err := EncodeObject(obj, baseConfig(wire.CodeLDGMTriangle))
	if err != nil {
		t.Fatal(err)
	}
	rx := NewReceiver()
	d0, _ := enc.Datagram(0)
	d1, _ := enc.Datagram(1)
	rx.Ingest(d0) //nolint:errcheck
	rx.Ingest(d1) //nolint:errcheck
	if got := rx.PacketsIngested(1); got != 2 {
		t.Fatalf("PacketsIngested = %d, want 2", got)
	}
	if got := rx.PacketsIngested(999); got != 0 {
		t.Fatalf("unknown object PacketsIngested = %d", got)
	}
}

func TestSendEmitErrorAborts(t *testing.T) {
	obj := testObject(1000, 9)
	enc, err := EncodeObject(obj, baseConfig(wire.CodeLDGMStaircase))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	err = enc.Send(rand.New(rand.NewSource(1)), func([]byte) error {
		calls++
		if calls == 3 {
			return bytes.ErrTooLarge
		}
		return nil
	})
	if err == nil || calls != 3 {
		t.Fatalf("Send did not abort on emit error (calls=%d, err=%v)", calls, err)
	}
}

func TestObjectGeometryAccessors(t *testing.T) {
	obj := testObject(6400, 12) // 6400+8 bytes → 101 symbols of 64
	enc, err := EncodeObject(obj, baseConfig(wire.CodeLDGMStaircase))
	if err != nil {
		t.Fatal(err)
	}
	if enc.K() != 101 {
		t.Fatalf("K = %d, want 101", enc.K())
	}
	if enc.N() <= enc.K() {
		t.Fatalf("N = %d not above K", enc.N())
	}
	if _, err := enc.Datagram(-1); err == nil {
		t.Fatal("Datagram(-1) accepted")
	}
	if _, err := enc.Datagram(enc.N()); err == nil {
		t.Fatal("Datagram(N) accepted")
	}
}

func TestObjectClose(t *testing.T) {
	obj := testObject(3000, 20)
	enc, err := EncodeObject(obj, baseConfig(wire.CodeLDGMStaircase))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Datagram(0); err != nil {
		t.Fatal(err)
	}
	enc.Close()
	enc.Close() // idempotent
	if _, err := enc.Datagram(0); err == nil {
		t.Fatal("Datagram succeeded on a closed object")
	}
	if err := enc.Send(rand.New(rand.NewSource(1)), func([]byte) error { return nil }); err == nil {
		t.Fatal("Send succeeded on a closed object")
	}
}

func TestForgetInFlightRestartsCleanly(t *testing.T) {
	obj := testObject(4000, 21)
	enc, err := EncodeObject(obj, baseConfig(wire.CodeLDGMTriangle))
	if err != nil {
		t.Fatal(err)
	}
	var datagrams [][]byte
	if err := enc.Send(rand.New(rand.NewSource(2)), func(d []byte) error {
		datagrams = append(datagrams, append([]byte(nil), d...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rx := NewReceiver()
	// Feed half, evict (closing the pooled decoder state), then deliver
	// everything: the object must start over and still decode exactly.
	for _, d := range datagrams[:len(datagrams)/2] {
		if _, _, _, err := rx.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	rx.Forget(1)
	if got := rx.PacketsIngested(1); got != 0 {
		t.Fatalf("state survived Forget: %d packets", got)
	}
	var got []byte
	for _, d := range datagrams {
		_, complete, data, err := rx.Ingest(d)
		if err != nil {
			t.Fatal(err)
		}
		if complete {
			got = data
		}
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("object corrupted after Forget/restart")
	}
}

func TestSessionAllWireFamilies(t *testing.T) {
	// The codec surface must make every wire family deliverable,
	// including the two the session layer could not carry before
	// (rse16 and no-fec).
	obj := testObject(9000, 22)
	for _, f := range []wire.CodeFamily{wire.CodeRSE16, wire.CodeNoFEC} {
		cfg := baseConfig(f)
		if f == wire.CodeNoFEC {
			cfg.Ratio = 1.0
		}
		enc, err := EncodeObject(obj, cfg)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		rx := NewReceiver()
		var got []byte
		err = enc.Send(rand.New(rand.NewSource(3)), func(d []byte) error {
			_, complete, data, err := rx.Ingest(d)
			if complete {
				got = data
			}
			return err
		})
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if !bytes.Equal(got, obj) {
			t.Fatalf("%v: reconstructed object differs", f)
		}
		enc.Close()
	}
	// rse16 carries 16-bit symbols: odd payload sizes must be rejected.
	cfg := baseConfig(wire.CodeRSE16)
	cfg.PayloadSize = 63
	if _, err := EncodeObject(obj, cfg); err == nil {
		t.Fatal("rse16 accepted an odd payload size")
	}
}

// TestReceiverRebuildsSendersBlocks carries RS geometries on which a
// receiver used to rebuild other blocks than the sender's from the (k, n)
// in the header — refused outright (339 @ 1.5, 304 @ 2.5) or accepted and
// decoded to wrong bytes (203 @ 2.5, 677 @ 1.5, 407 @ 1.25, 243 @ 1.05) —
// with neighbours that always worked. Sources 1–5 are lost, so the decode
// has to go through the parities of the blocks in question; an object
// carries no CRC, only equal bytes say it worked.
func TestReceiverRebuildsSendersBlocks(t *testing.T) {
	const payload = 16
	for _, g := range []struct {
		k     int
		ratio float64
	}{
		{203, 2.5}, {677, 1.5}, {407, 1.25}, {243, 1.05}, {339, 1.5},
		{304, 2.5}, {508, 1.05}, {1001, 2.5}, {256, 1.5},
	} {
		data := testObject(g.k*payload-lengthPrefix, int64(g.k))
		cfg := baseConfig(wire.CodeRSE)
		cfg.Ratio, cfg.PayloadSize = g.ratio, payload
		obj, err := EncodeObject(data, cfg)
		if err != nil {
			t.Fatalf("k=%d ratio %g: %v", g.k, g.ratio, err)
		}
		if obj.K() != g.k {
			t.Fatalf("k=%d ratio %g: object has k=%d", g.k, g.ratio, obj.K())
		}
		rx := NewReceiver()
		var got []byte
		for id := 0; id < obj.N() && got == nil; id++ {
			if id >= 1 && id <= 5 {
				continue
			}
			frame, err := obj.Frame(id)
			if err != nil {
				t.Fatal(err)
			}
			_, complete, out, err := rx.Ingest(frame)
			if err != nil {
				t.Fatalf("k=%d ratio %g (n=%d): packet %d: %v", g.k, g.ratio, obj.N(), id, err)
			}
			if complete {
				got = out
			}
		}
		if !bytes.Equal(got, data) {
			t.Errorf("k=%d ratio %g (n=%d): decoded %d bytes, equal to the object: false", g.k, g.ratio, obj.N(), len(got))
		}
		obj.Close()
	}
}
