package rse

// Encode and decode at k=32, 1 KiB symbols: the codec's path (pooled
// parity, gf256.AddMulRows) against the scalar reference kernel. The
// end-to-end figures live in `go run ./bench` (codes.encode_mb_s,
// codes.decode_mb_s); these rows isolate the codec.

import (
	"math/rand"
	"testing"

	"fecperf/internal/gf256"
	"fecperf/internal/symbol"
)

const (
	benchK      = 32
	benchSymLen = 1024
	benchRatio  = 1.5
)

func benchSource(b testing.TB) (*Code, [][]byte) { return codecFixture(b, benchK) }

// codecFixture returns the ratio-1.5 code over k sources and k seeded
// random 1 KiB source symbols.
func codecFixture(b testing.TB, k int) (*Code, [][]byte) {
	b.Helper()
	c, err := newRatio(k, benchRatio, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	src := make([][]byte, k)
	for i := range src {
		src[i] = make([]byte, benchSymLen)
		rng.Read(src[i])
	}
	return c, src
}

// BenchmarkCodecEncodeK32 is the codec's path: pooled parity buffers and
// the dispatched AddMulRows kernel.
func BenchmarkCodecEncodeK32(b *testing.B) {
	c, src := benchSource(b)
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
}

// BenchmarkCodecEncodeK32Scalar is the portable scalar reference: one
// log/exp kernel pass (no product table) per (row, source) pair.
func BenchmarkCodecEncodeK32Scalar(b *testing.B) {
	c, src := benchSource(b)
	b.SetBytes(benchK * benchSymLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bd := range c.blocks {
			g := c.generator(bd.kb, bd.nb)
			for r := 0; r < bd.nb-bd.kb; r++ {
				d := make([]byte, benchSymLen)
				for j, s := range src[bd.srcOff : bd.srcOff+bd.kb] {
					gf256.AddMulScalar(d, s, g.At(r, j))
				}
			}
		}
	}
}

// BenchmarkCodecDecodeK32 measures the incremental payload decoder on a
// parity-heavy arrival pattern (half the sources lost).
func BenchmarkCodecDecodeK32(b *testing.B) {
	c, src := benchSource(b)
	parity, err := c.Encode(src)
	if err != nil {
		b.Fatal(err)
	}
	all := append(append([][]byte{}, src...), parity...)
	order := make([]int, 0, c.Layout().N)
	for id := benchK / 2; id < c.Layout().N; id++ {
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
}
