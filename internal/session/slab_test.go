package session

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"fecperf/internal/codes"
	"fecperf/internal/symbol"
	"fecperf/internal/wire"
)

// TestFramesMatchAppendEncode pins the sender half of the slab seam: for
// every family × payload size × packet id, the datagram EncodeObject
// framed in place is byte-identical to wire.Packet.AppendEncode over the
// same fields, with the payload computed independently — sources cut from
// length-prefix ++ data ++ zero padding, parity from the codec's own
// Encode. The wire format did not move when framing moved to encode time.
func TestFramesMatchAppendEncode(t *testing.T) {
	families := []wire.CodeFamily{wire.CodeRSE, wire.CodeRSE16, wire.CodeLDGM,
		wire.CodeLDGMStaircase, wire.CodeLDGMTriangle, wire.CodeNoFEC}
	for _, f := range families {
		for _, size := range []int{1, 127, 128, 1024, 1400} {
			if f == wire.CodeRSE16 && size%2 != 0 {
				continue // GF(2^16) symbols are two bytes
			}
			t.Run(fmt.Sprintf("%v/%d", f, size), func(t *testing.T) {
				live := symbol.PoolStats().Live
				// ~21 symbols, the last one partly padding; 100 symbols
				// of one byte, where the length prefix alone spans eight.
				data := testObject(20*size+size/2+3, int64(size))
				if size == 1 {
					data = testObject(100, 1)
				}
				cfg := SenderConfig{ObjectID: 0xfeed0001, Family: f, Ratio: 1.5, PayloadSize: size, Seed: 77}
				if f == wire.CodeNoFEC {
					cfg.Ratio = 1
				}
				obj, err := EncodeObject(data, cfg)
				if err != nil {
					t.Fatal(err)
				}
				k, n := obj.K(), obj.N()

				stream := make([]byte, k*size)
				binary.BigEndian.PutUint64(stream, uint64(len(data)))
				copy(stream[lengthPrefix:], data)
				symbols := make([][]byte, k, n)
				for i := range symbols {
					symbols[i] = stream[i*size : (i+1)*size]
				}
				code, err := codes.ForWire(f, k, n, cfg.Seed)
				if err != nil {
					t.Fatal(err)
				}
				parity, err := code.Encode(symbols)
				if err != nil {
					t.Fatal(err)
				}
				symbols = append(symbols, parity...)

				for id := 0; id < n; id++ {
					p := wire.Packet{Family: f, ObjectID: cfg.ObjectID, PacketID: uint32(id),
						K: uint32(k), N: uint32(n), Seed: cfg.Seed, Payload: symbols[id]}
					want, err := p.AppendEncode(nil)
					if err != nil {
						t.Fatal(err)
					}
					frame, err := obj.Frame(id)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(frame, want) {
						t.Fatalf("frame %d differs from AppendEncode", id)
					}
					if d, _ := obj.Datagram(id); !bytes.Equal(d, want) {
						t.Fatalf("Datagram(%d) differs from AppendEncode", id)
					}
				}
				symbol.PutAll(parity)

				// The receiver half: parity-first delivery decodes to the
				// same bytes, whether read as segments or flattened.
				rx := NewReceiver()
				var decoded *Decoded
				for id := n - 1; id >= 0 && decoded == nil; id-- {
					frame, _ := obj.Frame(id)
					res, err := rx.IngestPacketEx(mustDecode(t, frame))
					if err != nil {
						t.Fatal(err)
					}
					if res.Complete {
						decoded, _ = rx.Take(res.ObjectID)
					}
				}
				if decoded == nil {
					t.Fatal("object did not decode")
				}
				var got []byte
				for seg := range decoded.Segments() {
					got = append(got, seg...)
				}
				if !bytes.Equal(got, data) || decoded.Len() != len(data) {
					t.Fatal("decoded segments differ from the object")
				}
				if !bytes.Equal(decoded.Bytes(), data) {
					t.Fatal("decoded bytes differ from the object")
				}
				decoded.Release()
				obj.Close()
				if now := symbol.PoolStats().Live; now != live {
					t.Fatalf("%d pool buffers still live after Close and Release", now-live)
				}
			})
		}
	}
}

// TestDecodedOwnership walks a completed object through each way out of
// the receiver and checks who holds the slab afterwards: Forget releases
// it; Take moves it to the caller; Bytes trades it for memory that no
// later decode can touch.
func TestDecodedOwnership(t *testing.T) {
	data := testObject(200_000, 3)
	cfg := SenderConfig{ObjectID: 5, Family: wire.CodeRSE, Ratio: 1.5, PayloadSize: 1024}
	obj, err := EncodeObject(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	start := symbol.PoolStats().Live
	rx := NewReceiver()
	deliver := func() {
		t.Helper()
		for id := 0; id < obj.K(); id++ {
			frame, _ := obj.Frame(id)
			if _, err := rx.IngestPacketEx(mustDecode(t, frame)); err != nil {
				t.Fatal(err)
			}
		}
	}
	held := func() int64 { return symbol.PoolStats().Live - start }

	deliver()
	if held() == 0 {
		t.Fatal("a completed object holds no slab")
	}
	rx.Forget(cfg.ObjectID)
	if held() != 0 {
		t.Fatalf("Forget left %d buffers live", held())
	}

	deliver()
	taken, ok := rx.Take(cfg.ObjectID)
	if !ok {
		t.Fatal("Take found no completed object")
	}
	if _, ok := rx.Object(cfg.ObjectID); ok {
		t.Fatal("receiver still serves an object it gave away")
	}
	rx.Forget(cfg.ObjectID) // nothing of the taken object is left to release
	if held() == 0 {
		t.Fatal("Forget released a slab the caller owns")
	}
	flat := taken.Bytes()
	if held() != 0 {
		t.Fatalf("Bytes left %d buffers live", held())
	}
	taken.Release() // harmless after Bytes

	// Decode the object again, into the very buffers just released, with
	// other content: the flattened copy must not move.
	other, err := EncodeObject(testObject(200_000, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	for id := 0; id < other.K(); id++ {
		frame, _ := other.Frame(id)
		if _, err := rx.IngestPacketEx(mustDecode(t, frame)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(flat, data) {
		t.Fatal("bytes obtained from Bytes changed when the slab was reused")
	}
	rx.Forget(cfg.ObjectID)
}
