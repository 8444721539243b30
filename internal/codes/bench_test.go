package codes

// Per-family payload codec benchmarks: encode and decode MB/s plus
// allocs/op through the uniform core.Codec surface, at the acceptance
// geometry (k=32, 1 KiB symbols). Package-level rows for working on one
// family; the committed measurements are `go run ./bench`'s.

import (
	"math/rand"
	"testing"

	"fecperf/internal/core"
	"fecperf/internal/symbol"
)

const (
	benchK      = 32
	benchSymLen = 1024
)

func benchRatio(name string) float64 {
	if name == "no-fec" {
		return 1.0
	}
	return 1.5
}

func benchCodec(b *testing.B, name string) (core.Codec, [][]byte) {
	b.Helper()
	c, err := MakeCodec(name, benchK, benchRatio(name), 17)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	src := make([][]byte, benchK)
	for i := range src {
		src[i] = make([]byte, benchSymLen)
		rng.Read(src[i])
	}
	return c, src
}

func BenchmarkCodecEncode(b *testing.B) {
	for _, name := range CodecNames {
		b.Run(name, func(b *testing.B) {
			c, src := benchCodec(b, name)
			b.SetBytes(benchK * benchSymLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				parity, err := c.Encode(src)
				if err != nil {
					b.Fatal(err)
				}
				symbol.PutAll(parity)
			}
		})
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	for _, name := range CodecNames {
		b.Run(name, func(b *testing.B) {
			c, src := benchCodec(b, name)
			parity, err := c.Encode(src)
			if err != nil {
				b.Fatal(err)
			}
			all := append(append([][]byte{}, src...), parity...)
			// Parity-first arrival order exercises real reconstruction
			// for the parity-bearing families; no-fec (n == k) simply
			// collects its sources.
			order := make([]int, 0, len(all))
			for id := len(all) - 1; id >= 0; id-- {
				order = append(order, id)
			}
			b.SetBytes(benchK * benchSymLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec, err := c.NewDecoder(benchSymLen)
				if err != nil {
					b.Fatal(err)
				}
				done := false
				for _, id := range order {
					if done = dec.ReceivePayload(id, all[id]); done {
						break
					}
				}
				if !done {
					b.Fatal("decode incomplete")
				}
				dec.Close()
			}
		})
	}
}
