package session

// Session-path benchmarks: what the transport actually pays per object
// and per datagram. Watch the allocs/op columns — the pooled symbol
// buffers are what keeps them flat.

import (
	"math/rand"
	"testing"

	"fecperf/internal/codes"
	"fecperf/internal/symbol"
	"fecperf/internal/wire"
)

func benchData(n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(5)).Read(data)
	return data
}

func BenchmarkSessionEncode(b *testing.B) {
	data := benchData(64 << 10)
	cfg := SenderConfig{ObjectID: 1, Family: wire.CodeRSE, Ratio: 1.5, PayloadSize: 1024}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj, err := EncodeObject(data, cfg)
		if err != nil {
			b.Fatal(err)
		}
		obj.Close()
	}
}

// BenchmarkSessionEncodeRawCodec is the raw codec run over exactly the
// geometry BenchmarkSessionEncode produces (same k, symbol size and
// ratio — per-source-byte parity work scales with n-k, so MB/s is only
// comparable at matched geometry). The session/raw ratio is the session
// layer's true overhead.
func BenchmarkSessionEncodeRawCodec(b *testing.B) {
	data := benchData(64 << 10)
	const payload = 1024
	k := (lengthPrefix + len(data) + payload - 1) / payload
	code, err := codes.MakeCodec("rse", k, 1.5, 0)
	if err != nil {
		b.Fatal(err)
	}
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, payload)
		lo := i * payload
		if lo < len(data) {
			copy(src[i], data[lo:])
		}
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parity, err := code.Encode(src)
		if err != nil {
			b.Fatal(err)
		}
		symbol.PutAll(parity)
	}
}

func BenchmarkSessionDecode(b *testing.B) {
	data := benchData(64 << 10)
	cfg := SenderConfig{ObjectID: 1, Family: wire.CodeRSE, Ratio: 1.5, PayloadSize: 1024}
	obj, err := EncodeObject(data, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer obj.Close()
	var datagrams [][]byte
	if err := obj.Send(rand.New(rand.NewSource(6)), func(d []byte) error {
		datagrams = append(datagrams, append([]byte(nil), d...))
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx := NewReceiver()
		complete := false
		for _, d := range datagrams {
			_, done, _, err := rx.Ingest(d)
			if err != nil {
				b.Fatal(err)
			}
			if done {
				complete = true
				break
			}
		}
		if !complete {
			b.Fatal("object did not decode")
		}
	}
}

// BenchmarkSessionIngestPacket isolates the per-datagram receive cost:
// wire decode plus the single pooled copy into decoder state.
func BenchmarkSessionIngestPacket(b *testing.B) {
	data := benchData(256 << 10)
	cfg := SenderConfig{ObjectID: 1, Family: wire.CodeLDGMStaircase, Ratio: 2.5, PayloadSize: 1024, Seed: 9}
	obj, err := EncodeObject(data, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer obj.Close()
	n := obj.N()
	datagrams := make([][]byte, n)
	for id := 0; id < n; id++ {
		d, err := obj.Datagram(id)
		if err != nil {
			b.Fatal(err)
		}
		datagrams[id] = d
	}
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	rx := NewReceiver()
	fed := 0
	for i := 0; i < b.N; i++ {
		if _, done, _, err := rx.Ingest(datagrams[fed%n]); err != nil {
			b.Fatal(err)
		} else if done || fed == n-1 {
			rx = NewReceiver() // start the object over
			fed = 0
			continue
		}
		fed++
	}
}
