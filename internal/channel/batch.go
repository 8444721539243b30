package channel

// Batched channel stepping for fleet simulation. A fleet run advances
// 10⁵–10⁶ independent Gilbert chains one transmission per shared
// schedule position; going through one *rand.Rand virtual call per
// receiver per symbol would make the RNG the whole profile. A Stepper
// instead advances a chain directly on its raw splitmix64 state — the
// same 8 bytes core.SplitMixSource holds — up to 64 transmissions at a
// time, and returns the losses as a bitmask. stepScalar is the scalar
// reference. A full word on amd64 with AVX512F+DQ runs splitmixWord: 64
// outputs eight lanes at a time (state j is s+(j+1)·γ) as "enter loss"
// and "stay in loss" masks, which resolveChain runs the two-state chain
// through by parallel-prefix composition. Shorter batches, `-tags
// purego` builds, other architectures and older CPUs take the reference.
//
// Both paths are golden-equivalent to the scalar chain: for the same
// seed, StepMask reproduces, bit for bit, the loss sequence of
//
//	NewGilbert(p, q, rand.New(&core.SplitMixSource{seeded}))
//
// including math/rand's Float64 resampling loop (Float64 redraws when
// the 53-bit rounding of Int63()/2⁶³ lands exactly on 1.0 — a once per
// 2⁵⁴ draws event the reference's fixup path reproduces; a word in
// which any lane would redraw falls back to the reference whole). The
// equivalence holds because Float64() < P compares float64(x>>1)/2⁶³
// against P, the division by 2⁶³ is exact, and uint64→float64
// conversion is monotone — so the float comparison collapses to one
// integer compare against a precomputed threshold.

import (
	"fmt"

	"fecperf/internal/cpuid"
)

const (
	splitmixGamma = 0x9e3779b97f4a7c15
	// redrawMin is the smallest y in [0, 2⁶³) whose float64 conversion
	// rounds up to exactly 2⁶³ — the values where math/rand's Float64
	// resamples. Computed in init by the same search as the thresholds.
	two63 = float64(1 << 63)
	// wordGamma advances a splitmix64 state by one full word of draws.
	wordGamma = 64 * splitmixGamma & (1<<64 - 1)
)

// wordOffsets[j] = (j+1)·γ: lane j's state is the reference's after j+1 steps.
var wordOffsets = func() (o [64]uint64) {
	for j := range o {
		o[j] = uint64(j+1) * splitmixGamma
	}
	return o
}()

var redrawMin = yThreshold(two63)

// yThreshold returns the smallest y in [0, 2⁶³] with float64(y) >= t,
// so that "float64(y) < t" is exactly "y < yThreshold(t)" for every
// y < 2⁶³ (uint64→float64 conversion is monotone non-decreasing).
func yThreshold(t float64) uint64 {
	if t <= 0 {
		return 0
	}
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid) >= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Stepper advances a two-state Gilbert chain (Bernoulli and no-loss as
// special cases) in batches of up to 64 transmissions. The zero value
// is the lossless stepper. Steppers are immutable values, safe to copy
// and share across goroutines; the per-chain state lives entirely in
// the (state, lost) pair the caller owns.
type Stepper struct {
	// pT and qT are the integer comparison thresholds equivalent to
	// "Float64() < P" (entering loss) and "Float64() < Q" (leaving it).
	pT, qT uint64
	// active distinguishes a real chain from the lossless stepper, which
	// consumes no randomness: its state never advances.
	active bool
}

// NewStepper builds the batched equivalent of NewGilbert(p, q, ·). It
// panics when p or q are outside [0, 1], like NewGilbert.
func NewStepper(p, q float64) Stepper {
	if err := ValidateGilbert(p, q); err != nil {
		panic(err)
	}
	return Stepper{
		pT:     yThreshold(p * two63),
		qT:     yThreshold(q * two63),
		active: true,
	}
}

// Lossless reports whether the stepper can never lose a packet (and
// therefore never advances the chain state).
func (st Stepper) Lossless() bool { return !st.active }

// StepMask advances the chain n (≤ 64) transmissions from (*state,
// *lost) and returns a bitmask with bit j set iff transmission j was
// lost — exactly the values n successive Gilbert.Lost() calls would
// return on a chain over a SplitMixSource holding *state. state and
// lost are updated in place.
func (st Stepper) StepMask(state *uint64, lost *bool, n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n > 64 {
		panic(fmt.Sprintf("channel: StepMask batch %d exceeds 64", n))
	}
	if !st.active {
		return 0
	}
	if n == 64 && cpuid.AVX512DQ {
		if enter, stay, redraw := splitmixWord(*state, st.pT, st.qT, redrawMin, &wordOffsets); redraw == 0 {
			mask := resolveChain(enter, stay, *lost)
			*state, *lost = *state+wordGamma, mask>>63 == 1
			return mask
		}
	}
	return st.stepScalar(state, lost, n)
}

// stepScalar is StepMask's reference path for 1 ≤ n ≤ 64 on an active
// stepper: branch-free integer arithmetic, except for math/rand's
// Float64 resample, taken once per ~2⁵⁴ draws.
func (st Stepper) stepScalar(state *uint64, lost *bool, n int) uint64 {
	s := *state
	var cur uint64
	if *lost {
		cur = 1
	}
	pT, qT := st.pT, st.qT
	var mask uint64
	for j := 0; j < n; j++ {
		s += splitmixGamma
		x := s
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
		y := x >> 1
		if y >= redrawMin {
			y = redrawY(&s)
		}
		// t = lost ? qT : pT, selected without a branch; the subtraction's
		// sign bit is "y < t" since both sides are below 2⁶³.
		t := pT ^ (-cur & (pT ^ qT))
		cur ^= (y - t) >> 63
		mask |= cur << uint(j)
	}
	*state = s
	*lost = cur == 1
	return mask
}

// resolveChain runs a two-state chain, started in state lost, through
// 64 steps, step j taking state 0 to bit j of enter and 1 to bit j of
// stay, and returns its state after each step. After six prefix rounds
// bit j of (a, b) is the state after steps 0..j from state 0 and 1.
func resolveChain(enter, stay uint64, lost bool) uint64 {
	a, b := compose(enter, stay, 1)
	a, b = compose(a, b, 2)
	a, b = compose(a, b, 4)
	a, b = compose(a, b, 8)
	a, b = compose(a, b, 16)
	a, b = compose(a, b, 32)
	if lost {
		return b
	}
	return a
}

// compose is one prefix round: it composes each step's map (bit j of a,
// b: its images of 0 and 1) after f, the map d steps before it (the
// identity below bit d), sending x to f(x) ? b : a.
func compose(a, b uint64, d uint) (uint64, uint64) {
	differ := a ^ b
	return a ^ a<<d&differ, a ^ (b<<d|(1<<d-1))&differ
}

// Chain is one running chain of a Stepper — the stepper, its splitmix64
// state and its in-loss bit — as a core.Channel and core.LossMasker: the
// fleet's kernel stepping a scalar trial.
type Chain struct {
	st    Stepper
	state uint64
	lost  bool
}

// Chain starts a chain in the no-loss state from splitmix64 state: the
// chain NewGilbert builds over a core.SplitMixSource holding state.
func (st Stepper) Chain(state uint64) Chain { return Chain{st: st, state: state} }

// Lost implements core.Channel.
func (c *Chain) Lost() bool { return c.st.StepMask(&c.state, &c.lost, 1) != 0 }

// LossMask implements core.LossMasker.
func (c *Chain) LossMask(n int) uint64 { return c.st.StepMask(&c.state, &c.lost, n) }

// redrawY reproduces Float64's resampling: draw again until the value
// no longer rounds to 1.0, consuming splitmix64 outputs exactly as the
// scalar chain would.
func redrawY(s *uint64) uint64 {
	for {
		*s += splitmixGamma
		x := *s
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
		if y := x >> 1; y < redrawMin {
			return y
		}
	}
}
