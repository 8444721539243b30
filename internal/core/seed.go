package core

// DeriveSeed derives an independent RNG seed from a base seed and a
// sequence of stream identifiers. Each step runs the splitmix64
// finalizer over the accumulated state XOR the next identifier, so
// nearby identifiers (trial 4 vs trial 5, carousel round 2 vs 3) yield
// statistically unrelated seeds — unlike additive offsets, which put
// neighbouring streams on overlapping or correlated rand sequences.
//
// It lives in core because every layer that re-randomises per unit of
// work hashes its way to a seed with it: the engine per trial, the
// transport carousel per (round, object) — the latter is what makes
// mid-round carousel resume deterministic.
func DeriveSeed(base int64, parts ...uint64) int64 {
	h := splitmix64(uint64(base))
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	return int64(h)
}

// splitmix64 is the finalizer of Steele, Lea and Flood's SplitMix64
// generator: an invertible avalanche mix whose outputs pass BigCrush.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SplitMixSource is a math/rand Source64 running the SplitMix64
// generator. Two properties matter on the trial and carousel hot
// paths, where a generator is re-seeded for every unit of work:
//
//   - Seed is O(1) — 8 bytes of state — where the default rngSource
//     expands every seed into a 607-word feedback register, which
//     profiles as ~10% of a whole simulation trial;
//   - consecutive integer seeds yield unrelated streams (the first
//     output is the splitmix64 finalizer of the seed, the construction
//     DeriveSeed already relies on).
//
// The zero value is a valid source seeded with 0.
type SplitMixSource struct {
	state uint64
}

// Seed implements rand.Source.
func (s *SplitMixSource) Seed(seed int64) { s.state = uint64(seed) }

// State returns the generator's 8 bytes of state: the state a
// channel.Stepper continues the stream from.
func (s *SplitMixSource) State() uint64 { return s.state }

// Uint64 implements rand.Source64.
func (s *SplitMixSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Int63 implements rand.Source.
func (s *SplitMixSource) Int63() int64 { return int64(s.Uint64() >> 1) }
