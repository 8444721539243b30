package fecperf

import (
	"bytes"
	"testing"
)

func TestDeliveryFacadeRoundTrip(t *testing.T) {
	obj := bytes.Repeat([]byte("fecperf!"), 1000)
	enc, err := NewObject(obj, WithSpec("codec=ldgm-staircase(ratio=2),object=5,payload=128,seed=7"))
	if err != nil {
		t.Fatal(err)
	}
	rx := NewDeliveryReceiver()
	var got []byte
	err = enc.Send(newRand(1), func(d []byte) error {
		p, err := DecodeWirePacket(d)
		if err != nil {
			return err
		}
		if p.ObjectID != 5 {
			t.Fatalf("datagram object id %d", p.ObjectID)
		}
		_, complete, data, err := rx.Ingest(d)
		if complete {
			got = data
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("delivered object differs")
	}
}

func TestDeliveryFacadeFamilies(t *testing.T) {
	for _, f := range []WireCodeFamily{WireRSE, WireLDGM, WireLDGMStaircase, WireLDGMTriangle} {
		if f.String() == "" {
			t.Fatal("family name empty")
		}
	}
}
