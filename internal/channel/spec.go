package channel

// One serializable description of a loss channel. A Spec is the text a
// spec line carries (Parse / String), the JSON a plan or checkpoint
// stores, the coordinate of a (p, q) grid cell, and the thing that
// builds the running chain (New) or its batched stepper (Stepper). The
// grammar is the channel-side instance of internal/spec:
//
//	gilbert(p=0.01,q=0.5)  — two-state Gilbert
//	bernoulli(p=0.05)      — IID loss
//	markov(p=0.01,q=0.5)   — the three-state model of ThreeStateSpec
//	noloss | no-loss       — the perfect channel
//
// Every Spec that Parse returns renders back to a string Parse reads
// into the same value. Explicit Markov matrices and recorded traces
// exist in Go and JSON only: their String is an identity hash, not a
// parseable spec.

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"fecperf/internal/core"
	"fecperf/internal/spec"
)

// Spec describes a loss channel. The zero value (empty Kind) means "no
// channel chosen".
type Spec struct {
	// Kind selects the family: "gilbert", "bernoulli", "markov",
	// "noloss" or "trace".
	Kind string `json:"kind"`
	// P and Q parameterise gilbert (transition probabilities),
	// bernoulli (loss rate P) and markov (ThreeStateSpec coordinates).
	P float64 `json:"p,omitempty"`
	Q float64 `json:"q,omitempty"`
	// Markov overrides the canonical three-state model with an explicit
	// n-state spec when Kind is "markov".
	Markov *MarkovSpec `json:"markov,omitempty"`
	// Trace is the recorded loss pattern when Kind is "trace". Every
	// chain New builds replays it from the start, so repeated trials see
	// the same channel realisation; NoWrap makes a chain report
	// "received" past the end of the trace instead of wrapping around.
	Trace  []bool `json:"trace,omitempty"`
	NoWrap bool   `json:"nowrap,omitempty"`
}

// Kinds lists the kinds the spec grammar names, sorted. "trace" is the
// one kind beyond them: a recorded pattern has no one-line form.
var Kinds = []string{"bernoulli", "gilbert", "markov", "noloss"}

// GilbertChannel describes a two-state Gilbert channel with transition
// probabilities (p, q).
func GilbertChannel(p, q float64) Spec { return Spec{Kind: "gilbert", P: p, Q: q} }

// BernoulliChannel describes IID loss at rate p.
func BernoulliChannel(p float64) Spec { return Spec{Kind: "bernoulli", P: p} }

// NoLossChannel describes the perfect channel.
func NoLossChannel() Spec { return Spec{Kind: "noloss"} }

// MarkovChannel describes an explicit n-state Markov loss model.
func MarkovChannel(m MarkovSpec) Spec { return Spec{Kind: "markov", Markov: &m} }

// TraceChannel describes replay of a recorded loss pattern.
func TraceChannel(pattern []bool, noWrap bool) Spec {
	return Spec{Kind: "trace", Trace: pattern, NoWrap: noWrap}
}

// Parse reads a channel spec; see the file comment for the grammar.
// Omitted parameters default to p=0, q=1, and the result is validated.
func Parse(text string) (Spec, error) {
	base, params, err := spec.Split(text)
	if err != nil {
		return Spec{}, fmt.Errorf("channel: spec %q: %w", text, err)
	}
	var s Spec
	var keys []string
	switch base {
	case "gilbert", "markov":
		s, keys = Spec{Kind: base, Q: 1}, []string{"p", "q"}
	case "bernoulli":
		s, keys = Spec{Kind: base}, []string{"p"}
	case "noloss", "no-loss":
		s.Kind = "noloss"
	default:
		return Spec{}, fmt.Errorf("channel: unknown channel spec %q (have %v)", text, Kinds)
	}
	if bad := params.Unknown(keys...); bad != nil {
		return Spec{}, fmt.Errorf("channel: %s does not take parameters %v (takes %v)", base, bad, keys)
	}
	dst := []*float64{&s.P, &s.Q}
	for i, key := range keys {
		v, ok, err := params.Float(key)
		if err != nil {
			return Spec{}, fmt.Errorf("channel: spec %q: %w", text, err)
		}
		if ok {
			*dst[i] = v
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate is the one place channel parameters are checked.
func (s Spec) Validate() error {
	switch s.Kind {
	case "gilbert":
		return ValidateGilbert(s.P, s.Q)
	case "bernoulli":
		if !(s.P >= 0 && s.P <= 1) {
			return fmt.Errorf("channel: bernoulli p=%g outside [0,1]", s.P)
		}
		return nil
	case "noloss":
		return nil
	case "markov":
		return s.markov().Validate()
	case "trace":
		if len(s.Trace) == 0 {
			return fmt.Errorf("channel: trace channel has no pattern")
		}
		return nil
	default:
		return fmt.Errorf("channel: unknown kind %q (have %v and trace)", s.Kind, Kinds)
	}
}

// markov returns the explicit model, or the canonical three-state one
// at the spec's (P, Q) coordinates.
func (s Spec) markov() MarkovSpec {
	if s.Markov != nil {
		return *s.Markov
	}
	return ThreeStateSpec(s.P, s.Q)
}

// New builds a fresh scalar chain drawing randomness from rng (noloss
// and trace chains draw none). The spec must be valid: like NewGilbert,
// New panics on parameters Validate rejects.
func (s Spec) New(rng *rand.Rand) core.Channel {
	switch s.Kind {
	case "gilbert":
		return NewGilbert(s.P, s.Q, rng)
	case "bernoulli":
		return Bernoulli(s.P, rng)
	case "noloss":
		return NoLoss{}
	case "markov":
		m, err := NewMarkov(s.markov(), rng)
		if err != nil {
			panic(err)
		}
		return m
	case "trace":
		return &Trace{Pattern: s.Trace, NoWrap: s.NoWrap}
	default:
		panic(s.Validate())
	}
}

// Stepper returns the batched stepper golden-equivalent to the chain
// New builds over a core.SplitMixSource. ok is false for the kinds that
// cannot be batch-stepped (markov, trace). The lossless stepper never
// advances the chain state, matching the scalar NoLoss channel, which
// consumes no randomness.
func (s Spec) Stepper() (st Stepper, ok bool) {
	switch s.Kind {
	case "gilbert":
		return NewStepper(s.P, s.Q), true
	case "bernoulli":
		return NewStepper(s.P, 1-s.P), true
	case "noloss":
		return Stepper{}, true
	default:
		return Stepper{}, false
	}
}

// Key returns the spec's stable identity: the string checkpoints match
// on and point seeds hash, and for every kind in Kinds the canonical
// spec Parse reads back.
func (s Spec) Key() string {
	switch s.Kind {
	case "noloss":
		return "noloss"
	case "bernoulli":
		return fmt.Sprintf("bernoulli(p=%g)", s.P)
	case "trace":
		h := uint64(1469598103934665603) // FNV-1a over the pattern bits
		for _, lost := range s.Trace {
			b := uint64(0)
			if lost {
				b = 1
			}
			h = (h ^ b) * 1099511628211
		}
		return fmt.Sprintf("trace(n=%d,wrap=%t,h=%x)", len(s.Trace), !s.NoWrap, h)
	case "markov":
		if s.Markov != nil {
			h := fnv.New64a()
			fmt.Fprintf(h, "%v|%v|%d", s.Markov.Transition, s.Markov.LossProb, s.Markov.Start)
			return fmt.Sprintf("markov(h=%x)", h.Sum64())
		}
		fallthrough
	default:
		return fmt.Sprintf("%s(p=%g,q=%g)", s.Kind, s.P, s.Q)
	}
}

// String renders the Key form.
func (s Spec) String() string { return s.Key() }
