package wire

import "testing"

func BenchmarkEncode(b *testing.B) {
	p := sample()
	p.Payload = make([]byte, 1024)
	buf := make([]byte, 0, HeaderLen+1024)
	b.SetBytes(int64(HeaderLen + 1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := p.AppendEncode(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

func BenchmarkDecode(b *testing.B) {
	p := sample()
	p.Payload = make([]byte, 1024)
	data, err := p.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeLike is BenchmarkDecode for a datagram of an object in
// flight, checked against the header of another of its datagrams: the
// header compare and four table lookups in place of the 36-byte CRC.
func BenchmarkDecodeLike(b *testing.B) {
	p := sample()
	p.Payload = make([]byte, 1024)
	data, err := p.Encode()
	if err != nil {
		b.Fatal(err)
	}
	tmpl := append([]byte(nil), data[:HeaderLen]...)
	SetPacketID(tmpl, 0)
	var q Packet
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeLike(&q, data, tmpl); err != nil {
			b.Fatal(err)
		}
	}
}
