package recommend

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func fastCfg() Config { return Config{K: 150, Trials: 4, Seed: 1} }

func TestCandidatesComposition(t *testing.T) {
	cands := Candidates()
	// 3 codes × (5 models × 2 ratios + tx6 × 1 ratio) = 3 × 11 = 33.
	if len(cands) != 33 {
		t.Fatalf("got %d candidates, want 33", len(cands))
	}
	for _, c := range cands {
		if c.TxModel == "tx6" && c.Ratio < 2 {
			t.Fatalf("tx6 paired with ratio %g", c.Ratio)
		}
	}
}

func TestTupleString(t *testing.T) {
	s := Tuple{Code: "rse", TxModel: "tx5", Ratio: 2.5}.String()
	if !strings.Contains(s, "rse") || !strings.Contains(s, "tx5") || !strings.Contains(s, "2.5") {
		t.Fatalf("Tuple.String() = %q", s)
	}
}

func TestEvaluateRejectsBadChannel(t *testing.T) {
	if _, err := Evaluate(Tuple{Code: "rse", TxModel: "tx5", Ratio: 2.5}, -1, 0.5, fastCfg()); err == nil {
		t.Fatal("Evaluate accepted p=-1")
	}
}

func TestEvaluateRejectsBadTuple(t *testing.T) {
	if _, err := Evaluate(Tuple{Code: "nope", TxModel: "tx4", Ratio: 2.5}, 0.1, 0.9, fastCfg()); err == nil {
		t.Fatal("Evaluate accepted unknown code")
	}
	if _, err := Evaluate(Tuple{Code: "rse", TxModel: "tx9", Ratio: 2.5}, 0.1, 0.9, fastCfg()); err == nil {
		t.Fatal("Evaluate accepted unknown model")
	}
}

func TestEvaluatePerfectChannel(t *testing.T) {
	r, err := Evaluate(Tuple{Code: "ldgm-staircase", TxModel: "tx2", Ratio: 1.5}, 0, 1, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed || r.Ineff != 1.0 {
		t.Fatalf("perfect channel: %+v", r)
	}
}

func TestRankOrdering(t *testing.T) {
	ranked, err := Rank(0.01, 0.8, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 33 {
		t.Fatalf("ranked %d tuples", len(ranked))
	}
	seenFailed := false
	last := 0.0
	for _, r := range ranked {
		if r.Failed {
			seenFailed = true
			continue
		}
		if seenFailed {
			t.Fatal("successful tuple ranked after a failed one")
		}
		if r.Ineff < last {
			t.Fatalf("inefficiency ordering violated: %g after %g", r.Ineff, last)
		}
		last = r.Ineff
	}
}

func TestBestAtBenignChannel(t *testing.T) {
	best, err := Best(0.01, 0.8, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if best.Failed {
		t.Fatal("Best returned a failed tuple")
	}
	if best.Ineff > 1.2 {
		t.Fatalf("best inefficiency %g suspiciously high for a mild channel", best.Ineff)
	}
}

func TestBestFailsOnImpossibleChannel(t *testing.T) {
	// p=1, q=0: everything after the first packet is lost; nothing decodes.
	if _, err := Best(1, 0, fastCfg()); err == nil {
		t.Fatal("Best succeeded on an impossible channel")
	}
}

func TestUniversalMatchesPaper(t *testing.T) {
	u := Universal()
	if len(u) != 2 {
		t.Fatalf("got %d universal tuples", len(u))
	}
	if u[0].Code != "ldgm-triangle" || u[0].TxModel != "tx4" {
		t.Fatalf("first universal tuple %v, want (ldgm-triangle; tx4)", u[0])
	}
	if u[1].Code != "ldgm-staircase" || u[1].TxModel != "tx6" {
		t.Fatalf("second universal tuple %v, want (ldgm-staircase; tx6)", u[1])
	}
}

func TestOptimalNSent(t *testing.T) {
	// k=100, inef=1.1, loss 0.5 → 220 packets.
	n, err := OptimalNSent(100, 1.1, 0.5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 220 {
		t.Fatalf("OptimalNSent = %d, want 220", n)
	}
	// Margin added, cap applied.
	n, err = OptimalNSent(100, 1.1, 0.5, 10, 225)
	if err != nil {
		t.Fatal(err)
	}
	if n != 225 {
		t.Fatalf("capped OptimalNSent = %d, want 225", n)
	}
}

func TestOptimalNSentValidation(t *testing.T) {
	if _, err := OptimalNSent(0, 1.1, 0.5, 0, 0); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := OptimalNSent(10, 0.9, 0.5, 0, 0); err == nil {
		t.Fatal("accepted inefficiency < 1")
	}
	if _, err := OptimalNSent(10, 1.1, 1.0, 0, 0); err == nil {
		t.Fatal("accepted pGlobal = 1")
	}
}

func TestWorkedExampleMatchesPaper(t *testing.T) {
	ex := WorkedExample()
	// The paper: ~48829 source packets (50 MB / 1024 B), p_global = 0.0135,
	// optimal n_sent ≈ 50041, total n = 73243.
	if ex.K < 48820 || ex.K > 48840 {
		t.Fatalf("K = %d, want ≈48829", ex.K)
	}
	if math.Abs(ex.PGlobal-0.0135) > 0.0005 {
		t.Fatalf("PGlobal = %g, want ≈0.0135", ex.PGlobal)
	}
	if ex.NSentOpt < 49900 || ex.NSentOpt > 50200 {
		t.Fatalf("NSentOpt = %d, want ≈50041", ex.NSentOpt)
	}
	if ex.NTotal < 73200 || ex.NTotal > 73300 {
		t.Fatalf("NTotal = %d, want ≈73243", ex.NTotal)
	}
	if ex.NSentOpt >= ex.NTotal {
		t.Fatal("optimisation saved nothing")
	}
}

// TestOneConfigurationOneMeasurement: a (tuple, channel) pair is one
// plan point with one seed, so Evaluate, the tuple's Rank entry and the
// point's share of EvaluatePopulation measure the same trials.
func TestOneConfigurationOneMeasurement(t *testing.T) {
	cfg := Config{K: 200, Trials: 5, Seed: 3}
	tuples := []Tuple{
		{Code: "rse", TxModel: "tx4", Ratio: 1.5},
		{Code: "ldgm-staircase", TxModel: "tx2", Ratio: 2.5},
		{Code: "ldgm-triangle", TxModel: "tx5", Ratio: 1.5},
	}
	points := []PQ{{P: 0.05, Q: 0.5}, {P: 0.01, Q: 0.8}}
	for _, tuple := range tuples {
		var want PopulationResult
		want.Tuple = tuple
		for _, pt := range points {
			ev, err := Evaluate(tuple, pt.P, pt.Q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ranked, err := Rank(pt.P, pt.Q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			i := slices.IndexFunc(ranked, func(r Result) bool { return r.Tuple == tuple })
			if i < 0 {
				t.Fatalf("%s missing from Rank", tuple)
			}
			if ranked[i] != ev {
				t.Errorf("%s at %+v: Rank measured %+v, Evaluate %+v", tuple, pt, ranked[i], ev)
			}
			if ev.Failed {
				want.FailedPoints = append(want.FailedPoints, pt)
			} else {
				want.Ineff.Add(ev.Ineff)
			}
		}
		got, err := EvaluatePopulation(tuple, points, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: EvaluatePopulation measured %+v, Evaluate per point %+v", tuple, got, want)
		}
	}
}
