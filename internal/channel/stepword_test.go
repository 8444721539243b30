package channel

import (
	"math/rand"
	"testing"

	"fecperf/internal/cpuid"
)

// wordReference computes splitmixWord's three masks one lane at a time.
func wordReference(s, pT, qT, rmin uint64) (enter, stay, redraw uint64) {
	for j := range wordOffsets {
		x := s + wordOffsets[j]
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
		y := x >> 1
		enter |= b2u(y < pT) << j
		stay |= b2u(y >= qT) << j
		redraw |= b2u(y >= rmin) << j
	}
	return enter, stay, redraw
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// unmixSplitmix inverts splitmix64's output mixer: the state whose
// output is x. Each xorshift is undone by re-applying it until the
// shifted bits run out; each odd multiplier by its inverse mod 2⁶⁴.
func unmixSplitmix(x uint64) uint64 {
	unshift := func(x uint64, k uint) uint64 {
		y := x
		for s := k; s < 64; s += k {
			y ^= x >> s
		}
		return y
	}
	inverse := func(c uint64) uint64 {
		inv := c // correct to 3 bits; each Newton step doubles that
		for range 5 {
			inv *= 2 - c*inv
		}
		return inv
	}
	x = unshift(x, 31)
	x *= inverse(0x94d049bb133111eb)
	x = unshift(x, 27)
	x *= inverse(0xbf58476d1ce4e5b9)
	return unshift(x, 30)
}

// kernelCases are (p, q) pairs at the thresholds' edges: never and
// always, p = q (Bernoulli), p on either side of q, and the lossless
// stepper.
var kernelCases = []Spec{
	GilbertChannel(0, 0), GilbertChannel(0, 1), GilbertChannel(1, 0), GilbertChannel(1, 1),
	GilbertChannel(0.3, 0.3), GilbertChannel(0.6, 0.2), GilbertChannel(0.05, 0.5),
	BernoulliChannel(0.25), NoLossChannel(),
}

// TestStepMaskMatchesReference: StepMask — the word kernel at n = 64
// where the CPU has it — returns the mask, state and in-loss bit of the
// scalar reference, for every n in 1..64, both start states, and every
// case above; full words get the most random states.
func TestStepMaskMatchesReference(t *testing.T) {
	if cpuid.AVX512DQ {
		t.Log("word kernel: avx512 (n = 64 runs splitmixWord)")
	} else {
		t.Log("word kernel: none (every n runs the reference)")
	}
	rng := rand.New(rand.NewSource(3))
	for _, f := range kernelCases {
		st, _ := f.Stepper()
		for n := 1; n <= 64; n++ {
			for _, lost := range []bool{false, true} {
				calls := 50
				if n == 64 {
					calls = 5000
				}
				for range calls {
					s := rng.Uint64()
					gotS, gotL := s, lost
					got := st.StepMask(&gotS, &gotL, n)
					wantS, wantL := s, lost
					var want uint64
					if st.active {
						want = st.stepScalar(&wantS, &wantL, n)
					}
					if got != want || gotS != wantS || gotL != wantL {
						t.Fatalf("%s n=%d lost=%t state=%#x: (%#x, %#x, %t), reference (%#x, %#x, %t)",
							f, n, lost, s, got, gotS, gotL, want, wantS, wantL)
					}
				}
			}
		}
	}
}

// TestResolveChain checks the parallel-prefix chain on masks built in
// Go, so it runs on every build: against the reference's loop for
// random steppers, and against a step-by-step walk on random maps.
func TestResolveChain(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for range 20000 {
		enter, stay := rng.Uint64(), rng.Uint64()
		for _, lost := range []bool{false, true} {
			var want uint64
			cur := b2u(lost)
			for j := range 64 {
				if cur == 0 {
					cur = enter >> j & 1
				} else {
					cur = stay >> j & 1
				}
				want |= cur << j
			}
			if got := resolveChain(enter, stay, lost); got != want {
				t.Fatalf("enter=%#x stay=%#x lost=%t: %#x, walk says %#x", enter, stay, lost, got, want)
			}
		}
	}
	for _, f := range kernelCases[:len(kernelCases)-1] {
		st, _ := f.Stepper()
		for range 500 {
			s := rng.Uint64()
			enter, stay, redraw := wordReference(s, st.pT, st.qT, redrawMin)
			if redraw != 0 {
				continue
			}
			for _, lost := range []bool{false, true} {
				rs, rl := s, lost
				if got, want := resolveChain(enter, stay, lost), st.stepScalar(&rs, &rl, 64); got != want {
					t.Fatalf("%s state=%#x lost=%t: resolved %#x, reference %#x", f, s, lost, got, want)
				}
				if rs != s+wordGamma {
					t.Fatalf("%s: a word without redraws advanced the state by %#x, want %#x", f, rs-s, uint64(wordGamma))
				}
			}
		}
	}
}

// TestStepMaskRedrawLanes forces Float64's resample into lanes 0, 31
// and 63 of a word — states built by inverting the mixer, so the lane's
// Int63 draw is the largest there is — and checks that StepMask falls
// back to the reference: same mask, state and in-loss bit, with the
// extra draw consumed.
func TestStepMaskRedrawLanes(t *testing.T) {
	for _, lane := range []int{0, 31, 63} {
		s := unmixSplitmix(^uint64(0)) - wordOffsets[lane]
		for _, f := range kernelCases[:len(kernelCases)-1] {
			st, _ := f.Stepper()
			_, _, redraw := wordReference(s, st.pT, st.qT, redrawMin)
			if redraw>>lane&1 == 0 {
				t.Fatalf("lane %d: built state %#x does not redraw (mask %#x)", lane, s, redraw)
			}
			for _, lost := range []bool{false, true} {
				gotS, gotL := s, lost
				got := st.StepMask(&gotS, &gotL, 64)
				wantS, wantL := s, lost
				want := st.stepScalar(&wantS, &wantL, 64)
				if got != want || gotS != wantS || gotL != wantL {
					t.Fatalf("%s lane %d lost=%t: (%#x, %#x, %t), reference (%#x, %#x, %t)",
						f, lane, lost, got, gotS, gotL, want, wantS, wantL)
				}
				if wantS == s+wordGamma {
					t.Fatalf("%s lane %d: the reference did not consume the redraw", f, lane)
				}
			}
		}
	}
}
