package codes

// Parameterized codec spec resolution — the codec-side instance of the
// shared spec grammar (internal/spec), the third registry next to
// sched.ByName and channel.Parse:
//
//	rse(k=32,ratio=1.5)
//	rse16(k=70000,ratio=1.25)
//	ldgm-staircase(k=20000,ratio=2.5,seed=7)
//	no-fec(k=8)
//
// A Spec is the serializable form of one codec configuration; its Name
// round-trips — ParseSpec(s.Name()) == s — so codec configurations
// persist through plans, CLI flags and the facade's one-line config
// specs exactly like schedulers and channels do.

import (
	"fmt"
	"strconv"

	"fecperf/internal/core"
	"fecperf/internal/spec"
	"fecperf/internal/wire"
)

// Spec is a serializable codec configuration: the family name plus the
// parameters MakeCodec needs.
type Spec struct {
	// Family is one of CodecNames ("rse", "rse16", "ldgm",
	// "ldgm-staircase", "ldgm-triangle", "no-fec").
	Family string
	// K is the source symbol count.
	K int
	// Ratio is the FEC expansion ratio n/k. Zero means 1 (no parity),
	// which only the no-fec family accepts.
	Ratio float64
	// Seed fixes the pseudo-random LDGM construction (ignored, and
	// omitted from Name, for the other families).
	Seed int64
}

// ParseSpec parses a codec spec string. The family name is required;
// k defaults to 0 (callers that know the object size fill it in),
// ratio to 1 for no-fec and is otherwise required, seed to 0.
func ParseSpec(s string) (Spec, error) {
	base, params, err := spec.Split(s)
	if err != nil {
		return Spec{}, fmt.Errorf("codes: spec %q: %w", s, err)
	}
	known := false
	for _, n := range CodecNames {
		if base == n {
			known = true
			break
		}
	}
	if !known {
		return Spec{}, fmt.Errorf("codes: unknown codec %q (have %v)", base, CodecNames)
	}
	if bad := params.Unknown("k", "ratio", "seed"); bad != nil {
		return Spec{}, fmt.Errorf("codes: %s has no parameters %v (want k, ratio, seed)", base, bad)
	}
	out := Spec{Family: base}
	k, ok, err := params.Int("k")
	if err != nil {
		return Spec{}, fmt.Errorf("codes: spec %q: %w", s, err)
	}
	if ok {
		if k <= 0 {
			return Spec{}, fmt.Errorf("codes: spec %q: k must be positive, got %d", s, k)
		}
		out.K = k
	}
	ratio, ok, err := params.Float("ratio")
	if err != nil {
		return Spec{}, fmt.Errorf("codes: spec %q: %w", s, err)
	}
	if ok {
		if !(ratio >= 1) { // also rejects NaN
			return Spec{}, fmt.Errorf("codes: spec %q: ratio %g below 1", s, ratio)
		}
		out.Ratio = ratio
	}
	seed, _, err := params.Int64("seed")
	if err != nil {
		return Spec{}, fmt.Errorf("codes: spec %q: %w", s, err)
	}
	out.Seed = seed
	return out, nil
}

// Name renders the canonical spec string. Zero-valued parameters are
// omitted, so ParseSpec(s.Name()) reproduces s exactly.
func (s Spec) Name() string {
	var fields []spec.Field
	if s.K != 0 {
		fields = append(fields, spec.Field{Key: "k", Value: strconv.Itoa(s.K)})
	}
	if s.Ratio != 0 {
		fields = append(fields, spec.Field{Key: "ratio", Value: strconv.FormatFloat(s.Ratio, 'g', -1, 64)})
	}
	if s.Seed != 0 {
		fields = append(fields, spec.Field{Key: "seed", Value: strconv.FormatInt(s.Seed, 10)})
	}
	return spec.Format(s.Family, fields...)
}

// WireFamily resolves the spec's family to its on-the-wire identifier.
func (s Spec) WireFamily() (wire.CodeFamily, error) {
	return wire.FamilyByName(s.Family)
}

// New builds the codec the spec describes. K must be set (ByName specs
// embed it; callers deriving k from an object size set it first), and
// so must Ratio for every parity-bearing family — defaulting it
// silently would make "rse(k=32)" a zero-parity code.
func (s Spec) New() (core.Codec, error) {
	if s.K <= 0 {
		return nil, fmt.Errorf("codes: spec %q needs k (source symbol count)", s.Name())
	}
	if s.Ratio == 0 && s.Family != "no-fec" {
		return nil, fmt.Errorf("codes: spec %q needs ratio (FEC expansion n/k)", s.Name())
	}
	ratio := s.Ratio
	if ratio == 0 {
		ratio = 1 // no-fec: n == k
	}
	return MakeCodec(s.Family, s.K, ratio, s.Seed)
}

// ByName resolves a fully parameterized codec spec — e.g.
// "rse(k=32,ratio=1.5,seed=7)" — into a ready codec. It is the codec
// twin of sched.ByName: ParseSpec for the structured form.
func ByName(name string) (core.Codec, error) {
	s, err := ParseSpec(name)
	if err != nil {
		return nil, err
	}
	return s.New()
}
