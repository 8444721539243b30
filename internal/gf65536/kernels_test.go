package gf65536

import (
	"math/rand"
	"slices"
	"testing"
)

func randSyms(rng *rand.Rand, n int) []uint16 {
	s := make([]uint16, n)
	for i := range s {
		s[i] = uint16(rng.Intn(Size))
	}
	return s
}

// Lengths from empty to a 4 KiB row, and coefficients including the 0
// and 1 special cases the random quick checks rarely draw.
var (
	kernelLens  = []int{0, 1, 3, 4, 5, 64, 127, 128, 129, 512, 515, 2048}
	kernelCoefs = []uint16{0, 1, 2, 0x53, 0x1234, 0xffff}
)

// The slice kernels must match the element-at-a-time scalar field
// operations: AddMul and MulSlice through Mul, Xor through Add.

func TestAddMulMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range kernelLens {
		for _, c := range kernelCoefs {
			src := randSyms(rng, n)
			want := randSyms(rng, n)
			got := slices.Clone(want)
			for i, s := range src {
				want[i] = Add(want[i], Mul(c, s))
			}
			AddMul(got, src, c)
			if !slices.Equal(got, want) {
				t.Fatalf("len %d c %#x: AddMul diverges from Mul", n, c)
			}
		}
	}
}

func TestMulSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range kernelLens {
		for _, c := range kernelCoefs {
			src := randSyms(rng, n)
			want := make([]uint16, n)
			for i, s := range src {
				want[i] = Mul(c, s)
			}
			got := randSyms(rng, n)
			MulSlice(got, src, c)
			if !slices.Equal(got, want) {
				t.Fatalf("len %d c %#x: MulSlice diverges from Mul", n, c)
			}
		}
	}
}

func TestXorMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range kernelLens {
		src := randSyms(rng, n)
		want := randSyms(rng, n)
		got := slices.Clone(want)
		for i, s := range src {
			want[i] = Add(want[i], s)
		}
		Xor(got, src)
		if !slices.Equal(got, want) {
			t.Fatalf("len %d: Xor diverges from Add", n)
		}
	}
}

func TestKernelLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"AddMul":   func() { AddMul(make([]uint16, 3), make([]uint16, 4), 2) },
		"MulSlice": func() { MulSlice(make([]uint16, 3), make([]uint16, 4), 2) },
		"Xor":      func() { Xor(make([]uint16, 3), make([]uint16, 4)) },
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
