package wire

import (
	"bytes"
	"testing"
)

// FuzzDecode hammers the datagram parser with arbitrary bytes: it must
// never panic, and for inputs it accepts, re-encoding the parsed packet
// must reproduce a decodable datagram with identical fields.
func FuzzDecode(f *testing.F) {
	good, _ := sample().Encode()
	f.Add(good)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, HeaderLen))
	f.Add(append(append([]byte{}, Magic[:]...), bytes.Repeat([]byte{0}, HeaderLen)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		// Round trip: accepted packets must re-encode and re-decode
		// to the same fields.
		re, err := p.Encode()
		if err != nil {
			t.Fatalf("accepted packet failed to re-encode: %v", err)
		}
		p2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded packet failed to decode: %v", err)
		}
		if p2.Family != p.Family || p2.ObjectID != p.ObjectID ||
			p2.PacketID != p.PacketID || p2.K != p.K || p2.N != p.N ||
			p2.Seed != p.Seed || !bytes.Equal(p2.Payload, p.Payload) {
			t.Fatal("round trip changed fields")
		}
	})
}

// FuzzDecodeLike checks DecodeLike against DecodeTo on two datagrams per
// input, against the header of a fixed object: the fuzzer's bytes as
// they are, and the object's header restamped with the fuzzer's packet
// ID, its bytes XORed with the fuzzer's mask (reaching every single-field
// mismatch, checksum updated or not) and the fuzzer's bytes as payload.
func FuzzDecodeLike(f *testing.F) {
	good, _ := sample().Encode()
	f.Add(good, uint32(3), []byte{})
	f.Add([]byte{}, uint32(1<<31), []byte{0, 0, 0, 0, 0, 1})
	f.Add(good[:HeaderLen-1], uint32(4999), bytes.Repeat([]byte{0}, 39))
	f.Add([]byte{1, 2, 3, 4, 5}, uint32(5000), []byte{})

	tmpl := good[:HeaderLen]
	f.Fuzz(func(t *testing.T, data []byte, id uint32, mask []byte) {
		like := append(append([]byte(nil), tmpl...), data...)
		SetPacketID(like, id)
		for i, m := range mask[:min(len(mask), HeaderLen)] {
			like[i] ^= m
		}
		for _, d := range [][]byte{data, like} {
			if agree, _ := decodeLikeAgrees(d, tmpl); !agree {
				t.Fatalf("DecodeLike disagrees with DecodeTo on %x", d)
			}
		}
	})
}
