// Package recommend implements the practical guidance of the paper's
// Section 6: selecting the best (FEC code, transmission model, FEC
// expansion ratio) tuple for a known channel, recommending universal
// schemes when the channel is unknown, and sizing n_sent so that receivers
// stop receiving packets shortly after they can decode (Equations 1-3).
package recommend

import (
	"context"
	"fmt"
	"math"
	"sort"

	"fecperf/internal/channel"
	"fecperf/internal/engine"
)

// Tuple is one candidate configuration.
type Tuple struct {
	Code    string  // "rse", "ldgm-staircase", "ldgm-triangle"
	TxModel string  // "tx1".."tx6"
	Ratio   float64 // FEC expansion ratio n/k
}

// String renders the tuple the way Section 6 discusses them.
func (t Tuple) String() string {
	return fmt.Sprintf("(%s; %s; ratio %.1f)", t.Code, t.TxModel, t.Ratio)
}

// Result is a ranked evaluation of a tuple at one channel point.
type Result struct {
	Tuple    Tuple
	Failed   bool    // at least one trial failed to decode
	Ineff    float64 // mean inefficiency over successful trials
	Failures int
	Trials   int
}

// The search space used throughout Section 6: the three codes crossed
// with the six transmission models and the two ratios the paper studies.
var (
	candidateCodes  = []string{"rse", "ldgm-staircase", "ldgm-triangle"}
	candidateModels = []string{"tx1", "tx2", "tx3", "tx4", "tx5", "tx6"}
	candidateRatios = []float64{1.5, 2.5}
)

// admissible drops the pairings the paper rules out: Tx_model_6 requires
// a high expansion ratio (Section 4.8), so it is only paired with 2.5.
func admissible(tx string, ratio float64) bool { return tx != "tx6" || ratio >= 2 }

// Candidates returns the admissible tuples of the search space in the
// order an engine plan over its axes expands them (code, ratio, model),
// which is the order Rank breaks ties in.
func Candidates() []Tuple {
	var out []Tuple
	for _, code := range candidateCodes {
		for _, ratio := range candidateRatios {
			for _, tx := range candidateModels {
				if admissible(tx, ratio) {
					out = append(out, Tuple{Code: code, TxModel: tx, Ratio: ratio})
				}
			}
		}
	}
	return out
}

// Config controls the evaluation scale.
type Config struct {
	// K is the object size in packets (0 = 1000).
	K int
	// Trials per tuple (0 = 20).
	Trials int
	// Seed drives all randomness.
	Seed int64
	// Workers bounds the parallelism of every measurement (0 = GOMAXPROCS).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 1000
	}
	if c.Trials == 0 {
		c.Trials = 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// plan is the tuple's engine plan over the Gilbert points. Every
// measurement in this package is one of its points, so a (tuple, channel)
// pair gets the same seed — DeriveSeed(cfg.Seed, hash(point key)) — and
// the same code, built from cfg.Seed (a sender has one code whatever the
// channel), whichever function asks and whatever points it is measured
// with: sizing part of a population agrees with sizing the whole of it.
func (t Tuple) plan(points []PQ, cfg Config) engine.Plan {
	chans := make([]channel.Spec, len(points))
	for i, pt := range points {
		chans[i] = channel.GilbertChannel(pt.P, pt.Q)
	}
	return engine.Plan{Codes: []string{t.Code}, Ks: []int{cfg.K}, Ratios: []float64{t.Ratio},
		Schedulers: []string{t.TxModel}, Channels: chans, Trials: cfg.Trials, Seed: cfg.Seed}
}

// measure runs every tuple's plan over the points in one engine batch and
// returns aggs[i][j], tuple i at point j.
func measure(tuples []Tuple, points []PQ, cfg Config) ([][]engine.Aggregate, error) {
	cfg = cfg.withDefaults()
	if len(points) == 0 {
		return nil, fmt.Errorf("recommend: no channel points")
	}
	var all []engine.Point
	for _, t := range tuples {
		pts, err := t.plan(points, cfg).Points()
		if err != nil {
			return nil, err
		}
		all = append(all, pts...)
	}
	res, err := engine.RunPoints(context.Background(), all, engine.Options{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	aggs := make([][]engine.Aggregate, len(tuples))
	for i := range aggs {
		for _, r := range res[i*len(points) : (i+1)*len(points)] {
			aggs[i] = append(aggs[i], r.Aggregate)
		}
	}
	return aggs, nil
}

func resultOf(t Tuple, agg engine.Aggregate) Result {
	return Result{
		Tuple:    t,
		Failed:   agg.Failed(),
		Ineff:    agg.MeanIneff(),
		Failures: agg.Failures,
		Trials:   agg.Trials,
	}
}

// Evaluate measures one tuple at the Gilbert point (p, q).
func Evaluate(t Tuple, p, q float64, cfg Config) (Result, error) {
	aggs, err := measure([]Tuple{t}, []PQ{{P: p, Q: q}}, cfg)
	if err != nil {
		return Result{}, err
	}
	return resultOf(t, aggs[0][0]), nil
}

// Rank evaluates every candidate tuple at (p, q) and sorts them: reliable
// tuples first (no failed trial), then by mean inefficiency. This is the
// "known channel" procedure of Section 6.2.1. The candidates run as one
// engine batch, so evaluation parallelises across tuples and trials.
func Rank(p, q float64, cfg Config) ([]Result, error) {
	cands := Candidates()
	aggs, err := measure(cands, []PQ{{P: p, Q: q}}, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(cands))
	for i, t := range cands {
		out[i] = resultOf(t, aggs[i][0])
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Failed != b.Failed {
			return !a.Failed
		}
		if a.Failed {
			return a.Failures < b.Failures
		}
		return a.Ineff < b.Ineff
	})
	return out, nil
}

// Best returns the top-ranked tuple at (p, q), or an error if every
// candidate failed at least once (the channel is beyond all codes).
func Best(p, q float64, cfg Config) (Result, error) {
	ranked, err := Rank(p, q, cfg)
	if err != nil {
		return Result{}, err
	}
	if len(ranked) == 0 || ranked[0].Failed {
		return Result{}, fmt.Errorf("recommend: no tuple decodes reliably at p=%g q=%g", p, q)
	}
	return ranked[0], nil
}

// Universal returns the paper's two recommended schemes for unknown
// channels (Section 6.2.2): (LDGM Triangle; Tx_model_4) — preferred when
// very high loss rates are suspected — and (LDGM Staircase; Tx_model_6).
// Both use the 2.5 expansion ratio the paper pairs them with.
func Universal() []Tuple {
	return []Tuple{
		{Code: "ldgm-triangle", TxModel: "tx4", Ratio: 2.5},
		{Code: "ldgm-staircase", TxModel: "tx6", Ratio: 2.5},
	}
}

// OptimalNSent implements Equation 3: the number of packets to transmit so
// that, at global loss rate pGlobal, a receiver obtains just enough
// packets to decode (inefficiency inef over k source packets), plus a
// safety margin of extraPackets. The result is capped at n, the total
// number of packets available.
func OptimalNSent(k int, inef, pGlobal float64, extraPackets, n int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("recommend: k must be positive, got %d", k)
	}
	if inef < 1 {
		return 0, fmt.Errorf("recommend: inefficiency %g below 1", inef)
	}
	if pGlobal < 0 || pGlobal >= 1 {
		return 0, fmt.Errorf("recommend: global loss %g outside [0,1)", pGlobal)
	}
	// The 1e-9 guard keeps binary floating point from pushing an exact
	// quotient (e.g. 1.1*100/0.5 = 220) over the next integer.
	nsent := int(math.Ceil(inef*float64(k)/(1-pGlobal)-1e-9)) + extraPackets
	if n > 0 && nsent > n {
		nsent = n
	}
	return nsent, nil
}

// WorkedExample reproduces the numbers of Section 6.2.1: a 50 MByte object
// (1024-byte payloads) sent over the Amherst→Los Angeles channel measured
// by Yajnik et al. (p=0.0109, q=0.7915). It returns the computed optimal
// n_sent (the paper: ≈50041 packets before tolerance) and the total n the
// sender would otherwise push (the paper: 73243 packets at ratio 1.5 with
// the measured inefficiency ≈ 1.011... n = 1.5k = 73242-73243).
type Example struct {
	K        int     // source packets
	PGlobal  float64 // stationary loss rate
	Ineff    float64 // inefficiency used by the paper for (tx2, staircase, 1.5)
	NSentOpt int     // Equation-3 result without tolerance
	NTotal   int     // packets available at ratio 1.5
}

// WorkedExample computes the Section 6.2.1 example.
func WorkedExample() Example {
	const (
		objectBytes = 50 * 1000 * 1000 // the paper's "50 MBytes"
		payload     = 1024
		p           = 0.0109
		q           = 0.7915
		ineff       = 1.011
		ratio       = 1.5
	)
	k := (objectBytes + payload - 1) / payload
	pg := channel.GlobalLoss(p, q)
	nsent, err := OptimalNSent(k, ineff, pg, 0, 0)
	if err != nil {
		panic(err) // constants above are valid by construction
	}
	return Example{
		K:        k,
		PGlobal:  pg,
		Ineff:    ineff,
		NSentOpt: nsent,
		NTotal:   int(float64(k) * ratio),
	}
}
