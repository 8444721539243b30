package channel

// Batched channel stepping for fleet simulation. A fleet run advances
// 10⁵–10⁶ independent Gilbert chains one transmission per shared
// schedule position; going through one *rand.Rand virtual call per
// receiver per symbol would make the RNG the whole profile. A Stepper
// instead advances a chain directly on its raw splitmix64 state — the
// same 8 bytes core.SplitMixSource holds — up to 64 transmissions at a
// time, with branch-free integer arithmetic in the hot loop, and
// returns the losses as a bitmask.
//
// The stepper is golden-equivalent to the scalar chain: for the same
// seed, StepMask reproduces, bit for bit, the loss sequence of
//
//	NewGilbert(p, q, rand.New(&core.SplitMixSource{seeded}))
//
// including math/rand's Float64 resampling loop (Float64 redraws when
// the 53-bit rounding of Int63()/2⁶³ lands exactly on 1.0 — a once per
// 2⁵⁴ draws event the fixup path below reproduces). The equivalence
// holds because Float64() < P compares float64(x>>1)/2⁶³ against P,
// the division by 2⁶³ is exact, and uint64→float64 conversion is
// monotone — so the float comparison collapses to one integer compare
// against a precomputed threshold.

import "fmt"

const (
	splitmixGamma = 0x9e3779b97f4a7c15
	// redrawMin is the smallest y in [0, 2⁶³) whose float64 conversion
	// rounds up to exactly 2⁶³ — the values where math/rand's Float64
	// resamples. Computed in init by the same search as the thresholds.
	two63 = float64(1 << 63)
)

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
	// active distinguishes a real chain from the lossless stepper: the
	// scalar NoLoss channel consumes no randomness, so its stepper must
	// not advance the state either.
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
//
// The loop is branch-free: the splitmix64 step, the threshold select
// and the state transition are all integer arithmetic with no
// data-dependent branches. The single exception is math/rand's Float64
// resample, taken once per ~2⁵⁴ draws.
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

// Chain is one running chain of a Stepper — the stepper, its splitmix64
// state and its in-loss bit — as a core.Channel and core.LossMasker: the
// fleet's kernel stepping a scalar trial.
type Chain struct {
	st    Stepper
	state uint64
	lost  bool
}

// Chain starts a chain in the no-loss state from splitmix64 state: the
// chain New builds over a core.SplitMixSource holding state.
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
