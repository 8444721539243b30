package session

import (
	"bytes"
	"math/rand"
	"testing"

	"fecperf/internal/obs"
	"fecperf/internal/wire"
)

// TestIngestPacketExDuplicates delivers every datagram twice and checks
// the bitmap: repeats are flagged, never advance Packets, and the object
// still decodes with a sane latency.
func TestIngestPacketExDuplicates(t *testing.T) {
	data := make([]byte, 10_000)
	rnd := rand.New(rand.NewSource(7))
	rnd.Read(data)
	o, err := EncodeObject(data, SenderConfig{ObjectID: 42, Family: wire.CodeRSE, Ratio: 1.5, PayloadSize: 512, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	r := NewReceiver()
	var got []byte
	dups, fresh := 0, 0
	for id := 0; id < o.N() && got == nil; id++ {
		d, err := o.Datagram(id)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			p, err := wire.Decode(d)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.IngestPacketEx(p)
			if err != nil {
				t.Fatal(err)
			}
			if res.K != o.K() {
				t.Fatalf("K = %d, want %d", res.K, o.K())
			}
			if res.Duplicate {
				dups++
			} else {
				fresh++
				if res.Packets != fresh {
					t.Fatalf("Packets = %d after %d fresh datagrams", res.Packets, fresh)
				}
			}
			if res.Complete {
				got, _ = r.Object(res.ObjectID)
				if res.DecodeNS <= 0 {
					t.Errorf("DecodeNS = %d, want > 0", res.DecodeNS)
				}
				break
			}
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decoded object differs")
	}
	if dups == 0 {
		t.Fatal("no duplicates detected despite double delivery")
	}
	// Post-completion datagrams are duplicates too.
	d, _ := o.Datagram(0)
	p, _ := wire.Decode(d)
	res, err := r.IngestPacketEx(p)
	if err != nil || !res.Duplicate {
		t.Fatalf("post-completion ingest: res=%+v err=%v, want Duplicate", res, err)
	}
}

// TestInstrument attaches a registry, runs one encode/decode cycle, and
// expects both codec histograms to have observations; detaching stops
// collection.
func TestInstrument(t *testing.T) {
	reg := obs.NewRegistry("fecperf")
	Instrument(reg)
	defer Instrument(nil)

	data := bytes.Repeat([]byte("fec"), 4000)
	o, err := EncodeObject(data, SenderConfig{ObjectID: 9, Family: wire.CodeRSE, Ratio: 1.5, PayloadSize: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	r := NewReceiver()
	for id := 0; id < o.N(); id++ {
		d, err := o.Datagram(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, complete, got, err := r.Ingest(d); err != nil {
			t.Fatal(err)
		} else if complete {
			if !bytes.Equal(got, data) {
				t.Fatal("decoded object differs")
			}
			break
		}
	}

	if s, ok := reg.HistogramValue("session_encode_seconds", nil); !ok || s.Total() != 1 {
		t.Errorf("session_encode_seconds total = %v, %v; want 1", s.Total(), ok)
	}
	if s, ok := reg.HistogramValue("session_decode_seconds", nil); !ok || s.Total() != 1 {
		t.Errorf("session_decode_seconds total = %v, %v; want 1", s.Total(), ok)
	}

	Instrument(nil)
	o2, err := EncodeObject(data, SenderConfig{ObjectID: 10, Family: wire.CodeRSE, Ratio: 1.5, PayloadSize: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	o2.Close()
	if s, _ := reg.HistogramValue("session_encode_seconds", nil); s.Total() != 1 {
		t.Errorf("detached Instrument still observed: total = %d", s.Total())
	}
}
