package engine

import (
	"fmt"
	"math"

	"fecperf/internal/channel"
	"fecperf/internal/codes"
	"fecperf/internal/core"
	"fecperf/internal/sched"
	"fecperf/internal/spec"
)

// Plan declares a cartesian scenario space: every combination of the
// axes below becomes one measurement Point. Empty axes take the
// defaults noted on each field; Codes, Schedulers and Channels must be
// non-empty.
type Plan struct {
	// Codes are codec families in codes.ParseSpec's grammar ("rse",
	// "rse16", "ldgm", "ldgm-staircase", "ldgm-triangle", "no-fec";
	// no-fec needs ratio 1), each with at most the LDGM families'
	// decoder key, e.g. "ldgm-staircase(decoder=gauss)". k, ratio and
	// the construction seed are the plan's own axes, not codec keys.
	Codes []string `json:"codes"`
	// Ks are object sizes in source packets (default {1000}).
	Ks []int `json:"ks,omitempty"`
	// Ratios are FEC expansion ratios n/k (default {2.5}).
	Ratios []float64 `json:"ratios,omitempty"`
	// Schedulers are transmission model names in sched.ByName's grammar:
	// "tx1".."tx6" and the parameterized models, e.g. "rx1(src=N)",
	// "repeat(x=R)" and "carousel(inner=MODEL,rounds=R)".
	Schedulers []string `json:"schedulers"`
	// Channels are the loss models to sweep. Mutually exclusive with
	// Fleets: a plan measures either independent trials or fleets.
	Channels []channel.Spec `json:"channels,omitempty"`
	// Fleets replaces the Channels axis with fleet populations: each
	// fleet becomes one point measuring the one-sender/N-receiver
	// completion distribution (see FleetSpec). Fleet plans ignore
	// Trials — a fleet's sample count is its receiver population.
	Fleets []FleetSpec `json:"fleets,omitempty"`
	// NSents are schedule truncation points; 0 sends the full schedule
	// (default {0}).
	NSents []int `json:"nsents,omitempty"`
	// Trials per point (default 100, the paper's count).
	Trials int `json:"trials,omitempty"`
	// Seed drives all pseudo-randomness; per-point seeds are derived
	// from it by hashing the point's configuration key.
	Seed int64 `json:"seed,omitempty"`
}

func (p Plan) withDefaults() Plan {
	if len(p.Ks) == 0 {
		p.Ks = []int{1000}
	}
	if len(p.Ratios) == 0 {
		p.Ratios = []float64{2.5}
	}
	if len(p.NSents) == 0 {
		p.NSents = []int{0}
	}
	if p.Trials == 0 {
		p.Trials = 100
	}
	return p
}

// Validate checks that every axis value resolves, without running
// anything expensive (codes are not constructed).
func (p Plan) Validate() error {
	if len(p.Codes) == 0 || len(p.Schedulers) == 0 || (len(p.Channels) == 0 && len(p.Fleets) == 0) {
		return fmt.Errorf("engine: plan needs at least one code, scheduler and channel")
	}
	if len(p.Channels) > 0 && len(p.Fleets) > 0 {
		return fmt.Errorf("engine: the Channels and Fleets axes are mutually exclusive")
	}
	for _, f := range p.Fleets {
		if err := f.Validate(); err != nil {
			return err
		}
	}
	for _, c := range p.Codes {
		if _, err := planCode(c); err != nil {
			return err
		}
	}
	for _, s := range p.Schedulers {
		if _, err := sched.ByName(s); err != nil {
			return err
		}
	}
	for _, c := range p.Channels {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	q := p.withDefaults()
	for _, k := range q.Ks {
		if k <= 0 {
			return fmt.Errorf("engine: object size k=%d must be positive", k)
		}
	}
	for _, r := range q.Ratios {
		if !(r >= 1) || math.IsInf(r, 1) { // also rejects NaN
			return fmt.Errorf("engine: expansion ratio %g is not a finite value >= 1", r)
		}
	}
	if q.Trials < 0 {
		return fmt.Errorf("engine: negative trial count %d", q.Trials)
	}
	return nil
}

// planCode parses a Codes entry (or a Point's Code): a codec family and
// at most its decoder key, since k, ratio and seed are the plan's axes.
func planCode(c string) (codes.Spec, error) {
	cs, err := codes.ParseSpec(c)
	if err != nil {
		return codes.Spec{}, fmt.Errorf("engine: %w", err)
	}
	if _, params, _ := spec.Split(c); params.Unknown("decoder") != nil {
		return codes.Spec{}, fmt.Errorf("engine: code %q: k, ratio and seed are the plan's axes, not codec keys", c)
	}
	return cs, nil
}

// NumPoints returns the size of the expanded scenario space.
func (p Plan) NumPoints() int {
	p = p.withDefaults()
	chans := len(p.Channels) + len(p.Fleets) // mutually exclusive axes
	return len(p.Codes) * len(p.Ks) * len(p.Ratios) * len(p.Schedulers) * chans * len(p.NSents)
}

// Point is one serializable work unit: a fully specified measurement
// point plus its derived seed. Points are what workers execute and what
// checkpoints record.
type Point struct {
	// Index is the position in the plan's expansion order (codes, then
	// ks, ratios, schedulers, channels, nsents — last axis fastest).
	Index int `json:"index"`
	// Code is the Codes entry in its canonical form (codes.Spec.Name):
	// decoder=peel, the default, is omitted.
	Code      string  `json:"code"`
	K         int     `json:"k"`
	Ratio     float64 `json:"ratio"`
	Scheduler string  `json:"scheduler"`
	// Channel's Key is part of the point's configuration key, so it may
	// never drift.
	Channel channel.Spec `json:"channel"`
	// Fleet, when set, makes this a fleet point: Channel is unused and
	// the result is the fleet's completion distribution. Fleet points
	// carry Trials == 0 (the sample count is the receiver population).
	Fleet  *FleetSpec `json:"fleet,omitempty"`
	NSent  int        `json:"nsent,omitempty"`
	Trials int        `json:"trials"`
	// Seed is the per-point seed, derived from the plan seed and the
	// configuration key; trial t then draws from core.DeriveSeed(Seed, t).
	Seed int64 `json:"seed"`
	// CodeSeed fixes the pseudo-random code construction (LDGM).
	CodeSeed int64 `json:"codeseed"`
}

// Key returns the point's configuration identity — everything that
// determines its result except the derived seed. Checkpoint records are
// matched on (Key, Seed), so resuming with a different plan seed never
// reuses stale results.
func (pt Point) Key() string { return pt.key(pt.Code) }

// key is Key with code in place of pt.Code. A point's seed hashes it with
// the bare codec family: a decoder draws no randomness, so points that
// differ only in their decoder share their seed — their trials see the
// same schedules and losses — while their Keys, and so their checkpoint
// records, stay apart.
func (pt Point) key(code string) string {
	ch := pt.Channel.Key()
	if pt.Fleet != nil {
		ch = pt.Fleet.Key()
	}
	return fmt.Sprintf("code=%s|k=%d|ratio=%g|sched=%s|ch=%s|trials=%d|nsent=%d|cseed=%d",
		code, pt.K, pt.Ratio, pt.Scheduler, ch, pt.Trials, pt.NSent, pt.CodeSeed)
}

// Points expands the plan into its cartesian scenario space. The
// expansion order is deterministic: codes, ks, ratios, schedulers,
// channels, nsents, with the last axis varying fastest. Each point's
// seed is derived by hashing its configuration key (its codec family
// without the decoder) with the plan seed, so a point keeps its seed
// (and therefore its exact result) when the plan is extended with new
// axis values.
func (p Plan) Points() ([]Point, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	names, families := make([]string, len(p.Codes)), make([]string, len(p.Codes))
	for i, c := range p.Codes {
		cs, _ := planCode(c) // Validate has parsed it
		names[i], families[i] = cs.Name(), cs.Family
	}
	out := make([]Point, 0, p.NumPoints())
	// The channel axis: one entry per channel, or one (unset) per fleet.
	chans, trials := p.Channels, p.Trials
	if len(p.Fleets) > 0 {
		chans, trials = make([]channel.Spec, len(p.Fleets)), 0
	}
	for ci, code := range names {
		for _, k := range p.Ks {
			for _, ratio := range p.Ratios {
				for _, s := range p.Schedulers {
					for fi, ch := range chans {
						for _, nsent := range p.NSents {
							pt := Point{
								Index:     len(out),
								Code:      code,
								K:         k,
								Ratio:     ratio,
								Scheduler: s,
								Channel:   ch,
								NSent:     nsent,
								Trials:    trials,
								CodeSeed:  p.Seed,
							}
							if len(p.Fleets) > 0 {
								f := p.Fleets[fi]
								pt.Fleet = &f
							}
							pt.Seed = core.DeriveSeed(p.Seed, hashString(pt.key(families[ci])))
							out = append(out, pt)
						}
					}
				}
			}
		}
	}
	return out, nil
}
