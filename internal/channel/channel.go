// Package channel implements the packet-loss models of the reproduced
// paper: the two-state Gilbert (Markov) model, its Bernoulli and no-loss
// special cases, and replay of recorded loss traces. It also provides the
// analytic results of Section 3.2: the global loss probability surface
// (Figure 5) and the decoding-impossibility limits (Figure 6), plus
// maximum-likelihood estimation of (p, q) from a trace, which Section 6.2
// uses to tune a transmission to a measured channel.
package channel

import (
	"fmt"
	"math"
	"math/rand"
)

// Gilbert is the two-state Markov loss model of Figure 4. In the no-loss
// state packets are delivered; in the loss state they are erased. P is the
// probability of moving from no-loss to loss, Q the probability of moving
// back. The chain starts in the no-loss state, matching the usual
// convention (and making p=0 a perfect channel regardless of q).
// It is the scalar reference Spec.New's Chain is pinned against; the
// simulations and live loss run that Chain.
type Gilbert struct {
	P, Q float64
	rng  *rand.Rand
	lost bool // current state
}

// NewGilbert returns a fresh chain. It panics when p or q are outside
// [0, 1]; use Validate to check user input first.
func NewGilbert(p, q float64, rng *rand.Rand) *Gilbert {
	if err := ValidateGilbert(p, q); err != nil {
		panic(err)
	}
	return &Gilbert{P: p, Q: q, rng: rng}
}

// ValidateGilbert checks that (p, q) are valid transition probabilities.
func ValidateGilbert(p, q float64) error {
	if !(p >= 0 && p <= 1 && q >= 0 && q <= 1) { // negated so NaN fails too
		return fmt.Errorf("channel: gilbert parameters p=%g q=%g outside [0,1]", p, q)
	}
	return nil
}

// Lost implements core.Channel: it advances the chain one transmission and
// reports whether that packet was erased.
func (g *Gilbert) Lost() bool {
	if g.lost {
		if g.rng.Float64() < g.Q {
			g.lost = false
		}
	} else {
		if g.rng.Float64() < g.P {
			g.lost = true
		}
	}
	return g.lost
}

// GlobalLoss returns the stationary packet loss probability p/(p+q)
// (Figure 5). The edge case p=q=0 is a channel that never leaves its
// initial no-loss state, so the global loss is zero.
func GlobalLoss(p, q float64) float64 {
	if p == 0 {
		return 0
	}
	if p+q == 0 {
		return 0
	}
	return p / (p + q)
}

// MeanBurstLength returns the expected number of consecutive losses once
// the chain enters the loss state: 1/q. Infinite (math.Inf) when q == 0.
func MeanBurstLength(q float64) float64 {
	if q == 0 {
		return math.Inf(1)
	}
	return 1 / q
}

// Trace replays a recorded loss pattern (true = lost). Past the end of the
// trace it wraps around, which keeps long simulations well-defined; set
// WrapPolicy to change that.
type Trace struct {
	Pattern []bool
	// NoWrap, when set, makes the trace report "received" past its end
	// instead of wrapping around.
	NoWrap bool
	pos    int
}

// Lost implements core.Channel.
func (t *Trace) Lost() bool {
	if len(t.Pattern) == 0 {
		return false
	}
	if t.pos >= len(t.Pattern) {
		if t.NoWrap {
			return false
		}
		t.pos = 0
	}
	v := t.Pattern[t.pos]
	t.pos++
	return v
}

// EstimateGilbert fits (p, q) to a loss trace by maximum likelihood: p is
// the fraction of no-loss→loss transitions out of all transitions leaving
// the no-loss state, q the fraction of loss→no-loss transitions out of all
// transitions leaving the loss state. This is how the papers cited in
// Section 3.2 ([8], [16]) derive channel parameters from packet traces.
// The initial state is taken to be the first sample.
func EstimateGilbert(trace []bool) (p, q float64, err error) {
	if len(trace) < 2 {
		return 0, 0, fmt.Errorf("channel: trace too short (%d samples) to estimate transitions", len(trace))
	}
	var fromOK, okToLoss, fromLoss, lossToOK int
	for i := 1; i < len(trace); i++ {
		if trace[i-1] {
			fromLoss++
			if !trace[i] {
				lossToOK++
			}
		} else {
			fromOK++
			if trace[i] {
				okToLoss++
			}
		}
	}
	if fromOK > 0 {
		p = float64(okToLoss) / float64(fromOK)
	}
	if fromLoss > 0 {
		q = float64(lossToOK) / float64(fromLoss)
	}
	return p, q, nil
}
