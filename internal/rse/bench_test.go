package rse

import (
	"math/rand"
	"testing"
)

func BenchmarkStructuralReceiver20k(b *testing.B) {
	c, err := newRatio(20000, 2.5, 0)
	if err != nil {
		b.Fatal(err)
	}
	order := rand.New(rand.NewSource(1)).Perm(c.Layout().N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx := c.NewReceiver()
		for _, id := range order {
			if rx.Receive(id) {
				break
			}
		}
	}
}

func BenchmarkEncodeBlock(b *testing.B) {
	c, err := newRatio(100, 2.5, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	src := make([][]byte, 100)
	for i := range src {
		src[i] = make([]byte, 1024)
		rng.Read(src[i])
	}
	b.SetBytes(100 * 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeBlock(0, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBlockWorstCase(b *testing.B) {
	// All source symbols lost: decode from parity alone (e = k_b, a dense
	// k_b×k_b inversion).
	c, err := newRatio(100, 2.5, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	src := make([][]byte, 100)
	for i := range src {
		src[i] = make([]byte, 1024)
		rng.Read(src[i])
	}
	parity, err := c.EncodeBlock(0, src)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(100 * 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := c.NewDecoder(1024)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 100; j++ {
			dec.ReceivePayload(100+j, parity[j])
		}
		if !dec.Done() {
			b.Fatal("decode incomplete")
		}
		dec.Close()
	}
}
