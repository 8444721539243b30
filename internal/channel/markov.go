package channel

// This file implements the "more elaborate channel models" the paper's
// conclusion defers to future work: a general n-state Markov packet loss
// model. The two-state Gilbert model is the special case with states
// {no-loss, loss}; adding states expresses channels whose loss behaviour
// has more memory — e.g. a three-state model separating "good",
// "degraded" (light random loss) and "outage" (bursty loss) regimes, as
// used for wireless links in the literature the paper cites ([8]).

import (
	"fmt"
	"math/rand"
)

// MarkovSpec describes an n-state Markov loss model.
type MarkovSpec struct {
	// Transition[i][j] is the probability of moving from state i to state
	// j at each packet transmission. Rows must sum to 1 (±1e-9).
	Transition [][]float64
	// LossProb[i] is the probability that a packet transmitted while in
	// state i is erased. A Gilbert model uses {0, 1}.
	LossProb []float64
	// Start is the initial state index.
	Start int
}

// Validate checks stochasticity and shape.
func (s MarkovSpec) Validate() error {
	n := len(s.Transition)
	if n == 0 {
		return fmt.Errorf("channel: markov spec has no states")
	}
	if len(s.LossProb) != n {
		return fmt.Errorf("channel: %d loss probabilities for %d states", len(s.LossProb), n)
	}
	if s.Start < 0 || s.Start >= n {
		return fmt.Errorf("channel: start state %d outside [0,%d)", s.Start, n)
	}
	for i, row := range s.Transition {
		if len(row) != n {
			return fmt.Errorf("channel: transition row %d has %d entries, want %d", i, len(row), n)
		}
		sum := 0.0
		for j, p := range row {
			if !(p >= 0 && p <= 1) { // negated so NaN fails too
				return fmt.Errorf("channel: transition[%d][%d]=%g outside [0,1]", i, j, p)
			}
			sum += p
		}
		if !(sum >= 1-1e-9 && sum <= 1+1e-9) {
			return fmt.Errorf("channel: transition row %d sums to %g, want 1", i, sum)
		}
	}
	for i, p := range s.LossProb {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("channel: loss probability %d = %g outside [0,1]", i, p)
		}
	}
	return nil
}

// Markov is a running n-state Markov loss chain.
type Markov struct {
	spec  MarkovSpec
	state int
	rng   *rand.Rand
}

// NewMarkov validates the spec and returns a fresh chain.
func NewMarkov(spec MarkovSpec, rng *rand.Rand) (*Markov, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Markov{spec: spec, state: spec.Start, rng: rng}, nil
}

// Lost implements core.Channel: advance one transition, then draw the
// per-state loss coin.
func (m *Markov) Lost() bool {
	x := m.rng.Float64()
	row := m.spec.Transition[m.state]
	acc := 0.0
	next := len(row) - 1
	for j, p := range row {
		acc += p
		if x < acc {
			next = j
			break
		}
	}
	m.state = next
	lp := m.spec.LossProb[m.state]
	switch lp {
	case 0:
		return false
	case 1:
		return true
	default:
		return m.rng.Float64() < lp
	}
}

// State returns the current state index (useful in tests).
func (m *Markov) State() int { return m.state }

// Reset puts the chain back in its start state, so one chain — model
// resolved and validated once — serves trial after trial on the same rng.
func (m *Markov) Reset() { m.state = m.spec.Start }

// GilbertSpec returns the MarkovSpec equivalent to Gilbert(p, q): two
// states, deterministic loss per state, started in the no-loss state.
func GilbertSpec(p, q float64) MarkovSpec {
	return MarkovSpec{
		Transition: [][]float64{
			{1 - p, p},
			{q, 1 - q},
		},
		LossProb: []float64{0, 1},
		Start:    0,
	}
}

// ThreeStateSpec returns a canonical three-state wireless-style loss
// model — good / degraded / outage — parameterised by the same (p, q)
// grid coordinates the paper sweeps. p drives degradation (good→degraded,
// degraded→outage), q drives recovery (outage→degraded, degraded→good);
// the degraded state loses half its packets, the outage state all of
// them. The spec is row-stochastic for every p, q in [0, 1].
func ThreeStateSpec(p, q float64) MarkovSpec {
	return MarkovSpec{
		Transition: [][]float64{
			{1 - p, p, 0},
			{q / 2, 1 - p/2 - q/2, p / 2},
			{0, q, 1 - q},
		},
		LossProb: []float64{0, 0.5, 1},
		Start:    0,
	}
}

// StationaryLoss computes the long-run packet loss rate of the spec by
// solving for the stationary distribution with power iteration (the chain
// sizes here are tiny, so simplicity beats a linear solver).
func (s MarkovSpec) StationaryLoss() (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	n := len(s.Transition)
	pi := make([]float64, n)
	pi[s.Start] = 1
	next := make([]float64, n)
	for iter := 0; iter < 10000; iter++ {
		for j := range next {
			next[j] = 0
		}
		for i := range pi {
			if pi[i] == 0 {
				continue
			}
			for j, p := range s.Transition[i] {
				next[j] += pi[i] * p
			}
		}
		diff := 0.0
		for j := range pi {
			d := next[j] - pi[j]
			if d < 0 {
				d = -d
			}
			diff += d
		}
		pi, next = next, pi
		if diff < 1e-12 {
			break
		}
	}
	loss := 0.0
	for i, p := range pi {
		loss += p * s.LossProb[i]
	}
	return loss, nil
}
