package channel

import (
	"math"
	"math/rand"
	"testing"

	"fecperf/internal/core"
)

// reference builds the scalar chain Spec.New must reproduce over rng:
// the Gilbert chain of Section 3.2 — bernoulli is q = 1-p, noloss is
// p = 0 — and NewMarkov for markov.
func reference(f Spec, rng *rand.Rand) core.Channel {
	switch f.Kind {
	case "gilbert":
		return NewGilbert(f.P, f.Q, rng)
	case "bernoulli":
		return NewGilbert(f.P, 1-f.P, rng)
	case "noloss":
		return NewGilbert(0, 1, rng)
	default:
		m, err := NewMarkov(f.markov(), rng)
		if err != nil {
			panic(err)
		}
		return m
	}
}

// scalarLosses runs the reference chain over a SplitMixSource seeded
// with seed for n transmissions.
func scalarLosses(f Spec, seed int64, n int) []bool {
	rng := rand.New(&core.SplitMixSource{})
	rng.Seed(seed)
	ch := reference(f, rng)
	out := make([]bool, n)
	for i := range out {
		out[i] = ch.Lost()
	}
	return out
}

// batchLosses runs the stepper over the same seed, drawing in batches
// of batch transmissions.
func batchLosses(t *testing.T, f Spec, seed int64, n, batch int) []bool {
	t.Helper()
	st, ok := f.Stepper()
	if !ok {
		t.Fatalf("%s refused a batch stepper", f)
	}
	state := uint64(seed)
	lost := false
	out := make([]bool, 0, n)
	for len(out) < n {
		m := batch
		if rem := n - len(out); m > rem {
			m = rem
		}
		mask := st.StepMask(&state, &lost, m)
		for j := 0; j < m; j++ {
			out = append(out, mask>>uint(j)&1 == 1)
		}
	}
	return out
}

// TestStepMaskMatchesScalarChain is the batch-step equivalence
// property: for every spec, seed and batch size, the vectorized
// step produces the identical loss sequence as the scalar
// Gilbert.Lost() chain over the same SplitMix stream.
func TestStepMaskMatchesScalarChain(t *testing.T) {
	specs := []Spec{
		GilbertChannel(0.01, 0.5),
		GilbertChannel(0.3, 0.1),
		GilbertChannel(0, 0.5), // never leaves the good state
		GilbertChannel(1, 0),   // absorbs into loss on step one
		GilbertChannel(1, 1),   // alternates
		GilbertChannel(0.5, 0.5),
		BernoulliChannel(0.05),
		BernoulliChannel(0),
		BernoulliChannel(1),
		NoLossChannel(),
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 40; i++ {
		specs = append(specs, GilbertChannel(rng.Float64(), rng.Float64()))
	}
	for _, f := range specs {
		for _, seed := range []int64{0, 1, -1, 7777, math.MaxInt64, math.MinInt64} {
			want := scalarLosses(f, seed, 3000)
			for _, batch := range []int{64, 1, 7, 33} {
				got := batchLosses(t, f, seed, 3000, batch)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s seed=%d batch=%d: loss[%d] = %t, scalar chain says %t",
							f, seed, batch, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestSpecNewMatchesScalarReference is the differential test of the one
// loss process: for every kind, Spec.New(seed) — the Chain for gilbert,
// bernoulli and noloss, stepped 64 at a time and singly; Markov for
// markov — loses exactly what the scalar reference loses over a
// SplitMixSource seeded with seed, p and q at 0 and 1 included.
func TestSpecNewMatchesScalarReference(t *testing.T) {
	var specs []Spec
	for _, p := range []float64{0, 0.01, 0.3, 1} {
		for _, q := range []float64{0, 0.5, 1} {
			specs = append(specs, GilbertChannel(p, q), Spec{Kind: "markov", P: p, Q: q})
		}
		specs = append(specs, BernoulliChannel(p))
	}
	specs = append(specs, BernoulliChannel(0.5), NoLossChannel(), MarkovChannel(GilbertSpec(0.05, 0.4)))
	const steps = 100_000
	for _, f := range specs {
		for _, seed := range []uint64{0, 1, 42, 1 << 63, math.MaxUint64} {
			src := &core.SplitMixSource{}
			src.Seed(int64(seed))
			want := reference(f, rand.New(src))
			got := f.New(seed)
			for i := 0; i < steps; {
				n := 64
				if i/64%5 == 4 {
					n = 1 + i%7 // short and single-step batches between the words
				}
				n = min(n, steps-i)
				var ref uint64
				for j := range n {
					if want.Lost() {
						ref |= 1 << j
					}
				}
				if mask := core.LossMask(got, n); mask != ref {
					t.Fatalf("%s seed=%d: transmissions %d..%d lost %#x, reference %#x", f, seed, i, i+n-1, mask, ref)
				}
				i += n
			}
		}
	}
}

// TestChainMatchesScalarChain: a Chain started from a SplitMixSource's
// state mid-stream — after a scheduler's draws, as a trial starts it —
// answers Lost and LossMask calls of any width, interleaved, exactly as
// the scalar chain over that source would.
func TestChainMatchesScalarChain(t *testing.T) {
	for _, f := range []Spec{GilbertChannel(0.1, 0.5), GilbertChannel(1, 1), BernoulliChannel(0.3), NoLossChannel()} {
		st, _ := f.Stepper()
		for seed := int64(0); seed < 20; seed++ {
			src := &core.SplitMixSource{}
			rng := rand.New(src)
			rng.Seed(seed)
			rng.Perm(int(seed)) // the scheduler's draws
			c := st.Chain(src.State())
			scalar := reference(f, rng)
			for i, width := range []int{1, 64, 5, 1, 63, 64, 2} {
				var got uint64
				if width == 1 && i%2 == 0 {
					if c.Lost() {
						got = 1
					}
				} else {
					got = c.LossMask(width)
				}
				var want uint64
				for j := range width {
					if scalar.Lost() {
						want |= 1 << j
					}
				}
				if got != want {
					t.Fatalf("%s seed %d call %d (width %d): chain %#x, scalar %#x", f, seed, i, width, got, want)
				}
			}
		}
	}
}

// TestStepMaskGolden pins fixed-seed loss masks so the stepper cannot
// drift silently even if the scalar chain drifts with it. The values
// are the first 64 transmissions of each chain, bit j = transmission j.
func TestStepMaskGolden(t *testing.T) {
	cases := []struct {
		f    Spec
		seed int64
		want uint64
	}{
		{GilbertChannel(0.1, 0.5), 1, 0xe18000000e100000},
		{GilbertChannel(0.1, 0.5), 99, 0x300000fe00200006},
		{GilbertChannel(0.01, 0.9), 12345, 0x0600000004000000},
		{BernoulliChannel(0.25), 7, 0x009008b084207d26},
		{BernoulliChannel(1), 7, 0xffffffffffffffff},
		{NoLossChannel(), 7, 0},
	}
	for _, c := range cases {
		st, ok := c.f.Stepper()
		if !ok {
			t.Fatalf("%s refused a batch stepper", c.f)
		}
		state, lost := uint64(c.seed), false
		got := st.StepMask(&state, &lost, 64)
		if got != c.want {
			t.Errorf("%s seed=%d: mask %#016x, want %#016x", c.f, c.seed, got, c.want)
		}
		// The golden values must themselves agree with the scalar chain.
		scalar := scalarLosses(c.f, c.seed, 64)
		var ref uint64
		for j, l := range scalar {
			if l {
				ref |= 1 << uint(j)
			}
		}
		if ref != c.want {
			t.Errorf("%s seed=%d: golden %#016x disagrees with scalar chain %#016x",
				c.f, c.seed, c.want, ref)
		}
	}
}

// TestYThreshold checks the integer-threshold construction: yThreshold
// is the exact boundary of {y : float64(y) < t}, and redrawMin is the
// first value Float64 would resample.
func TestYThreshold(t *testing.T) {
	if float64(redrawMin) != two63 {
		t.Fatalf("float64(redrawMin) = %g, want 2^63", float64(redrawMin))
	}
	if float64(redrawMin-1) >= two63 {
		t.Fatalf("float64(redrawMin-1) = %g rounds to 2^63", float64(redrawMin-1))
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		p := rng.Float64()
		yt := yThreshold(p * two63)
		if yt > 0 && !(float64(yt-1) < p*two63) {
			t.Fatalf("p=%v: float64(yT-1) not below threshold", p)
		}
		if yt < 1<<63 && !(float64(yt) >= p*two63) {
			t.Fatalf("p=%v: float64(yT) below threshold", p)
		}
	}
	if yThreshold(0) != 0 {
		t.Fatal("yThreshold(0) != 0")
	}
}

// TestStepMaskLossless: the zero stepper — noloss — advances nothing: a
// perfect channel consumes no randomness.
func TestStepMaskLossless(t *testing.T) {
	var st Stepper
	if !st.Lossless() {
		t.Fatal("zero Stepper is not lossless")
	}
	state, lost := uint64(55), false
	if mask := st.StepMask(&state, &lost, 64); mask != 0 {
		t.Fatalf("lossless mask %#x", mask)
	}
	if state != 55 || lost {
		t.Fatalf("lossless stepper mutated state: %d %t", state, lost)
	}
	// A real stepper with p=0 still advances the stream, matching the
	// scalar Gilbert chain that burns one Float64 per transmission.
	st = NewStepper(0, 0.5)
	if st.Lossless() {
		t.Fatal("gilbert(0,0.5) stepper claims lossless")
	}
	st.StepMask(&state, &lost, 10)
	if state == 55 {
		t.Fatal("gilbert(0,0.5) stepper did not advance the stream")
	}
}

// TestStepMaskBounds: batch size limits.
func TestStepMaskBounds(t *testing.T) {
	st := NewStepper(0.5, 0.5)
	state, lost := uint64(1), false
	if mask := st.StepMask(&state, &lost, 0); mask != 0 || state != 1 {
		t.Fatal("n=0 stepped")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("n=65 did not panic")
		}
	}()
	st.StepMask(&state, &lost, 65)
}
