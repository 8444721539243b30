package gf65536

import (
	"math/rand"
	"testing"
)

func randSyms(rng *rand.Rand, n int) []uint16 {
	s := make([]uint16, n)
	for i := range s {
		s[i] = uint16(rng.Intn(Size))
	}
	return s
}

func equal(a, b []uint16) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Lengths straddle splitTableLen so both the scalar and split-table
// paths are exercised, plus the word-unroll tails of Xor.
var kernelLens = []int{0, 1, 3, 4, 5, 64, 127, 128, 129, 512, 515}

func TestAddMulMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range kernelLens {
		for _, c := range []uint16{0, 1, 2, 0x53, 0x1234, 0xffff} {
			src := randSyms(rng, n)
			want := randSyms(rng, n)
			got := append([]uint16(nil), want...)
			AddMulScalar(want, src, c)
			AddMul(got, src, c)
			if !equal(got, want) {
				t.Fatalf("len %d c %#x: AddMul diverges from AddMulScalar", n, c)
			}
		}
	}
}

func TestMulSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range kernelLens {
		for _, c := range []uint16{0, 1, 2, 0x53, 0x1234, 0xffff} {
			src := randSyms(rng, n)
			want := randSyms(rng, n)
			got := randSyms(rng, n)
			MulSliceScalar(want, src, c)
			MulSlice(got, src, c)
			if !equal(got, want) {
				t.Fatalf("len %d c %#x: MulSlice diverges from MulSliceScalar", n, c)
			}
		}
	}
}

func TestSplitTableCoversMulExactly(t *testing.T) {
	// The split identity c*s == lo[s&0xff] ^ hi[s>>8] must hold for every
	// symbol value, not just random ones.
	var lo, hi [256]uint16
	for _, c := range []uint16{2, 3, 0x100, 0x8001, 0xffff} {
		buildSplit(&lo, &hi, c)
		for s := 0; s < Size; s++ {
			if got, want := lo[s&0xff]^hi[s>>8], Mul(c, uint16(s)); got != want {
				t.Fatalf("c=%#x s=%#x: split %#x, want %#x", c, s, got, want)
			}
		}
	}
}

func TestXorMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range kernelLens {
		src := randSyms(rng, n)
		want := randSyms(rng, n)
		got := append([]uint16(nil), want...)
		XorScalar(want, src)
		Xor(got, src)
		if !equal(got, want) {
			t.Fatalf("len %d: Xor diverges from XorScalar", n)
		}
	}
}

func TestKernelLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Xor":            func() { Xor(make([]uint16, 3), make([]uint16, 4)) },
		"XorScalar":      func() { XorScalar(make([]uint16, 3), make([]uint16, 4)) },
		"AddMulScalar":   func() { AddMulScalar(make([]uint16, 3), make([]uint16, 4), 2) },
		"MulSliceScalar": func() { MulSliceScalar(make([]uint16, 3), make([]uint16, 4), 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

// Old-vs-new kernel benchmarks.
// 4096 symbols (8 KiB) is deep enough for the split-table build to
// amortise; the scalar path keeps serving shorter slices.

func benchPair(n int) (dst, src []uint16) {
	rng := rand.New(rand.NewSource(9))
	return randSyms(rng, n), randSyms(rng, n)
}

func BenchmarkAddMulKernelGF16(b *testing.B) {
	dst, src := benchPair(4096)
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		AddMul(dst, src, 0x1234)
	}
}

func BenchmarkAddMulKernelGF16Scalar(b *testing.B) {
	dst, src := benchPair(4096)
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		AddMulScalar(dst, src, 0x1234)
	}
}

func BenchmarkXorKernelGF16(b *testing.B) {
	dst, src := benchPair(512)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		Xor(dst, src)
	}
}

func BenchmarkXorKernelGF16Scalar(b *testing.B) {
	dst, src := benchPair(512)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		XorScalar(dst, src)
	}
}
