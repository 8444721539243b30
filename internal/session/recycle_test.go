package session

import (
	"encoding/binary"
	"testing"

	"fecperf/internal/symbol"
	"fecperf/internal/wire"
)

// objectPackets encodes data and returns its datagrams parsed, by packet
// ID; each packet's payload is a copy of its own.
func objectPackets(t *testing.T, data []byte, cfg SenderConfig) []wire.Packet {
	t.Helper()
	obj, err := EncodeObject(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	packets := make([]wire.Packet, obj.N())
	for id := range packets {
		d, err := obj.Datagram(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.DecodeTo(&packets[id], d); err != nil {
			t.Fatal(err)
		}
	}
	return packets
}

// TestReassemblyClosedTwiceHandedOutOnce closes Reassemblies a second
// time — after Ingest finished the object, after it found the object
// corrupt, and after an abandoning Close — and checks that each went
// back once: the next two opens get distinct Reassemblies and distinct
// decoders. No pool buffer may outlive the test.
func TestReassemblyClosedTwiceHandedOutOnce(t *testing.T) {
	live := symbol.PoolStats().Live
	cfg := SenderConfig{ObjectID: 3, Family: wire.CodeLDGMStaircase, Ratio: 1.5, PayloadSize: 64, Seed: 4}
	packets := objectPackets(t, benchData(100*64-lengthPrefix), cfg)
	// A one-symbol object whose length prefix claims more than it holds.
	corrupt := make([]byte, 16)
	binary.BigEndian.PutUint64(corrupt, 1<<40)
	bogus := wire.Packet{Family: wire.CodeNoFEC, ObjectID: 4, K: 1, N: 1, Payload: corrupt}

	open := func(p *wire.Packet) *Reassembly {
		t.Helper()
		a, err := OpenReassembly(p)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, c := range []struct {
		name  string
		close func(a *Reassembly) // ends a's object the first time
	}{
		{"finished", func(a *Reassembly) {
			for id := range packets {
				if _, obj, err := a.Ingest(&packets[id]); err != nil {
					t.Fatal(err)
				} else if obj != nil {
					obj.Release()
					return
				}
			}
			t.Fatal("object did not decode")
		}},
		{"corrupt", func(a *Reassembly) {
			if _, _, err := a.Ingest(&bogus); err == nil {
				t.Fatal("a corrupt object decoded")
			}
		}},
		{"abandoned", func(a *Reassembly) {
			a.Ingest(&packets[0]) //nolint:errcheck
			a.Close()
		}},
	} {
		p := &packets[0]
		if c.name == "corrupt" {
			p = &bogus
		}
		a := open(p)
		c.close(a)
		a.Close() // the stale holder's Close
		b, d := open(&packets[0]), open(&packets[0])
		if b == d || b.dec == d.dec {
			t.Errorf("%s: one Reassembly closed twice was handed out twice", c.name)
		}
		b.Close()
		d.Close()
	}
	if end := symbol.PoolStats().Live; end != live {
		t.Errorf("symbol pool: %d live buffers at the start, %d at the end", live, end)
	}
}

// TestOpenIngestFinishAllocs pins what a steady-state LDGM object costs
// the receive path beyond its payload buffers — open, ingest with lost
// sources rebuilt, finish — on the cast-ldgm-smallpkt geometry (k=2048
// symbols of 128 B): the Reassembly, its seen bitset and the decoder's
// tables are the last object's, and the two slabs' buffer tables come
// back from the symbol pool's table lists, so what is new is the Decoded
// alone.
func TestOpenIngestFinishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; ceilings gate the plain tier")
	}
	live := symbol.PoolStats().Live
	cfg := SenderConfig{ObjectID: 1, Family: wire.CodeLDGMStaircase, Ratio: 1.5, PayloadSize: 128, Seed: 9}
	packets := objectPackets(t, benchData(2048*128-lengthPrefix), cfg)
	run := func() {
		a, err := OpenReassembly(&packets[0])
		if err != nil {
			t.Fatal(err)
		}
		for id := 2048 / 8; id < len(packets); id++ { // the first eighth lost
			if _, obj, err := a.Ingest(&packets[id]); err != nil {
				t.Fatal(err)
			} else if obj != nil {
				obj.Release()
				return
			}
		}
		t.Fatal("object did not decode")
	}
	run() // build the code, fill the pools
	if avg := testing.AllocsPerRun(20, run); avg > 1 {
		t.Errorf("open → ingest → finish: %.1f allocs/op, want <= 1", avg)
	}
	if end := symbol.PoolStats().Live; end != live {
		t.Errorf("symbol pool: %d live buffers at the start, %d at the end", live, end)
	}
}
