package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
)

// randSlice returns a deterministic pseudo-random slice of length n.
func randSlice(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// kernelLens covers the unroll boundaries: empty, sub-word, word-aligned,
// odd tails, and a realistic symbol size.
var kernelLens = []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 257, 1024, 1027}

func TestXorMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range kernelLens {
		src := randSlice(rng, n)
		d0 := randSlice(rng, n)
		d1 := append([]byte(nil), d0...)
		Xor(d0, src)
		XorScalar(d1, src)
		if !bytes.Equal(d0, d1) {
			t.Fatalf("len %d: Xor diverges from XorScalar", n)
		}
	}
}

func TestAddMulVariantsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range kernelLens {
		for _, c := range []byte{0, 1, 2, 0x53, 0x8e, 0xff} {
			src := randSlice(rng, n)
			want := randSlice(rng, n)
			fast := append([]byte(nil), want...)
			unrolled := append([]byte(nil), want...)
			AddMulScalar(want, src, c)
			AddMul(fast, src, c)
			addMulUnrolled(unrolled, src, c)
			if !bytes.Equal(fast, want) {
				t.Fatalf("len %d c %#x: AddMul diverges from AddMulScalar", n, c)
			}
			if !bytes.Equal(unrolled, want) {
				t.Fatalf("len %d c %#x: addMulUnrolled diverges from AddMulScalar", n, c)
			}
		}
	}
}

func TestMulSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range kernelLens {
		for _, c := range []byte{0, 1, 2, 0x53, 0xff} {
			src := randSlice(rng, n)
			want := randSlice(rng, n)
			fast := randSlice(rng, n)
			MulSliceScalar(want, src, c)
			MulSlice(fast, src, c)
			if !bytes.Equal(fast, want) {
				t.Fatalf("len %d c %#x: MulSlice diverges from MulSliceScalar", n, c)
			}
		}
	}
}

func TestAddMulRowBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	coefs := []byte{0, 1, 2, 0x53, 0x7e, 0x11, 0xc8, 0xff}
	for _, n := range kernelLens {
		src := randSlice(rng, n)
		for _, c0 := range coefs {
			for _, c1 := range coefs {
				w0, w1 := randSlice(rng, n), randSlice(rng, n)
				g0 := append([]byte(nil), w0...)
				g1 := append([]byte(nil), w1...)
				AddMulScalar(w0, src, c0)
				AddMulScalar(w1, src, c1)
				addMul2(g0, g1, src, c0, c1)
				if !bytes.Equal(g0, w0) || !bytes.Equal(g1, w1) {
					t.Fatalf("len %d c0 %#x c1 %#x: addMul2 diverges", n, c0, c1)
				}
			}
		}
		// AddMul4 across a coefficient sample, including degenerate rows.
		for trial := 0; trial < 32; trial++ {
			cs := [4]byte{coefs[rng.Intn(len(coefs))], coefs[rng.Intn(len(coefs))],
				coefs[rng.Intn(len(coefs))], coefs[rng.Intn(len(coefs))]}
			var want, got [4][]byte
			for r := 0; r < 4; r++ {
				want[r] = randSlice(rng, n)
				got[r] = append([]byte(nil), want[r]...)
				AddMulScalar(want[r], src, cs[r])
			}
			AddMul4(got[0], got[1], got[2], got[3], src, cs[0], cs[1], cs[2], cs[3])
			for r := 0; r < 4; r++ {
				if !bytes.Equal(got[r], want[r]) {
					t.Fatalf("len %d cs %v row %d: AddMul4 diverges", n, cs, r)
				}
			}
		}
	}
}

func TestRowBlockedLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"addMul2": func() { addMul2(make([]byte, 3), make([]byte, 4), make([]byte, 4), 2, 3) },
		"AddMul4": func() {
			AddMul4(make([]byte, 4), make([]byte, 4), make([]byte, 3), make([]byte, 4), make([]byte, 4), 2, 3, 4, 5)
		},
		"AddMulRows short dst row": func() {
			AddMulRows([][]byte{make([]byte, 64), make([]byte, 63)}, []byte{2, 3}, [][]byte{make([]byte, 64)})
		},
		"AddMulRows short source": func() {
			AddMulRows([][]byte{make([]byte, 64)}, []byte{2, 3}, [][]byte{make([]byte, 64), make([]byte, 32)})
		},
		"AddMulRows coefficient count": func() {
			AddMulRows([][]byte{make([]byte, 64), make([]byte, 64)}, []byte{2, 3, 4}, [][]byte{make([]byte, 64), make([]byte, 64)})
		},
		"AddMulScalar":   func() { AddMulScalar(make([]byte, 3), make([]byte, 4), 2) },
		"MulSliceScalar": func() { MulSliceScalar(make([]byte, 3), make([]byte, 4), 2) },
		"XorScalar":      func() { XorScalar(make([]byte, 3), make([]byte, 4)) },
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

// TestKernelTier logs the tier the dispatch selected.
func TestKernelTier(t *testing.T) {
	t.Logf("kernel tier: %s", Tier())
}

// TestVectorKernelsAreVEXOnly guards against the SSE/AVX transition
// stall: inside a routine that writes YMM or ZMM registers, one legacy-SSE
// instruction (say MOVQ AX, X2 where VMOVQ was meant) makes the CPU save
// and restore the upper register halves, ~130 ns on every call — more
// than a 1 KiB AddMul takes. No test of results can see that, so the
// source is checked instead: in every TEXT block of kernels_amd64.s that
// names a Y or Z register, each instruction with a vector operand must be
// VEX- or EVEX-encoded, i.e. carry the V prefix.
func TestVectorKernelsAreVEXOnly(t *testing.T) {
	asm, err := os.ReadFile("kernels_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	vecReg := regexp.MustCompile(`\b[XYZ]([12]?[0-9]|3[01])\b`)
	wideReg := regexp.MustCompile(`\b[YZ]([12]?[0-9]|3[01])\b`)
	var (
		name     string   // current TEXT block
		usesWide bool     // ... names a Y or Z register
		legacy   []string // ... and these are its non-VEX vector instructions
		kernels  int
	)
	flush := func() {
		if usesWide {
			kernels++
			for _, msg := range legacy {
				t.Error(msg)
			}
		}
		usesWide, legacy = false, nil
	}
	for i, line := range strings.Split(string(asm), "\n") {
		code, _, _ := strings.Cut(line, "//")
		fields := strings.Fields(code)
		if len(fields) == 0 || strings.HasSuffix(fields[0], ":") || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if fields[0] == "TEXT" {
			flush()
			name = strings.TrimSuffix(fields[1], ",")
			continue
		}
		operands := strings.Join(fields[1:], " ")
		if wideReg.MatchString(operands) {
			usesWide = true
		}
		if vecReg.MatchString(operands) && !strings.HasPrefix(fields[0], "V") {
			legacy = append(legacy, fmt.Sprintf("kernels_amd64.s:%d: %s mixes legacy-SSE %q into AVX code (use the V-prefixed form)",
				i+1, name, strings.TrimSpace(code)))
		}
	}
	flush()
	if kernels != 5 {
		t.Fatalf("found %d YMM/ZMM kernels in kernels_amd64.s, want 5 (addMul, addMul4, xor, addMulRowsGFNI, eliminateGFNI): the parser lost track of the file", kernels)
	}
}

// Per-tier kernel benchmarks: the unsuffixed benchmarks measure the
// dispatch entry points (the SIMD tier where the CPU has one), *Unrolled
// the tuned pure-Go table kernels the dispatch falls back to, and *Scalar
// the log/exp references.
// The *64 rows run 64-byte slices, where the fixed per-call cost (table
// broadcasts, VZEROUPPER, dispatch) shows next to the 1 KiB rows.

func benchPair(n int) (dst, src []byte) {
	rng := rand.New(rand.NewSource(9))
	return randSlice(rng, n), randSlice(rng, n)
}

func benchAddMul(b *testing.B, n int) {
	dst, src := benchPair(n)
	b.SetBytes(int64(n))
	for i := 0; i < b.N; i++ {
		AddMul(dst, src, 0x53)
	}
}

func BenchmarkAddMulKernel(b *testing.B)   { benchAddMul(b, 1024) }
func BenchmarkAddMulKernel64(b *testing.B) { benchAddMul(b, 64) }

func BenchmarkAddMulKernelScalar(b *testing.B) {
	dst, src := benchPair(1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		AddMulScalar(dst, src, 0x53)
	}
}

func BenchmarkAddMulKernelUnrolled(b *testing.B) {
	dst, src := benchPair(1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		addMulUnrolled(dst, src, 0x53)
	}
}

func benchAddMul4(b *testing.B, n int) {
	d0, src := benchPair(n)
	d1, _ := benchPair(n)
	d2, _ := benchPair(n)
	d3, _ := benchPair(n)
	b.SetBytes(int64(4 * n))
	for i := 0; i < b.N; i++ {
		AddMul4(d0, d1, d2, d3, src, 0x53, 0x7e, 0x11, 0xc8)
	}
}

func BenchmarkAddMul4Kernel(b *testing.B)   { benchAddMul4(b, 1024) }
func BenchmarkAddMul4Kernel64(b *testing.B) { benchAddMul4(b, 64) }

func BenchmarkAddMul4KernelUnrolled(b *testing.B) {
	d0, src := benchPair(1024)
	d1, _ := benchPair(1024)
	d2, _ := benchPair(1024)
	d3, _ := benchPair(1024)
	b.SetBytes(4 * 1024)
	for i := 0; i < b.N; i++ {
		addMul4Unrolled(d0, d1, d2, d3, src, 0x53, 0x7e, 0x11, 0xc8)
	}
}

func BenchmarkAddMul4KernelScalar(b *testing.B) {
	d0, src := benchPair(1024)
	d1, _ := benchPair(1024)
	d2, _ := benchPair(1024)
	d3, _ := benchPair(1024)
	b.SetBytes(4 * 1024)
	for i := 0; i < b.N; i++ {
		AddMulScalar(d0, src, 0x53)
		AddMulScalar(d1, src, 0x7e)
		AddMulScalar(d2, src, 0x11)
		AddMulScalar(d3, src, 0xc8)
	}
}

func BenchmarkXorKernel(b *testing.B) {
	dst, src := benchPair(1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		Xor(dst, src)
	}
}

func BenchmarkXorKernelWords(b *testing.B) {
	dst, src := benchPair(1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		xorWords(dst, src)
	}
}

func BenchmarkXorKernelScalar(b *testing.B) {
	dst, src := benchPair(1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		XorScalar(dst, src)
	}
}
