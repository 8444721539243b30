package channel

import (
	"math"
	"math/rand"
	"testing"
)

func threeState() MarkovSpec {
	// good → degraded → outage chain with increasing loss.
	return MarkovSpec{
		Transition: [][]float64{
			{0.95, 0.04, 0.01},
			{0.30, 0.60, 0.10},
			{0.10, 0.30, 0.60},
		},
		LossProb: []float64{0, 0.1, 0.9},
		Start:    0,
	}
}

func TestMarkovSpecValidate(t *testing.T) {
	if err := threeState().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []MarkovSpec{
		{},
		{Transition: [][]float64{{1}}, LossProb: []float64{0, 1}},
		{Transition: [][]float64{{0.5, 0.4}, {0.5, 0.5}}, LossProb: []float64{0, 1}},
		{Transition: [][]float64{{1, 0}, {0.5, 0.5}}, LossProb: []float64{0, 2}},
		{Transition: [][]float64{{1, 0}, {0.5, 0.5}}, LossProb: []float64{0, 1}, Start: 5},
		{Transition: [][]float64{{1}, {1}}, LossProb: []float64{0, 1}},
		{Transition: [][]float64{{-0.1, 1.1}, {0.5, 0.5}}, LossProb: []float64{0, 1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestNewMarkovRejectsBadSpec(t *testing.T) {
	if _, err := NewMarkov(MarkovSpec{}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("NewMarkov accepted empty spec")
	}
}

func TestMarkovGilbertEquivalence(t *testing.T) {
	// The 2-state spec must reproduce the Gilbert chain's loss rate.
	p, q := 0.08, 0.45
	spec := GilbertSpec(p, q)
	m, err := NewMarkov(spec, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	const n = 300000
	for i := 0; i < n; i++ {
		if m.Lost() {
			lost++
		}
	}
	got := float64(lost) / n
	want := GlobalLoss(p, q)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("markov gilbert loss %g, want %g", got, want)
	}
}

func TestMarkovStationaryLossMatchesEmpirical(t *testing.T) {
	spec := threeState()
	want, err := spec.StationaryLoss()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMarkov(spec, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	const n = 500000
	for i := 0; i < n; i++ {
		if m.Lost() {
			lost++
		}
	}
	got := float64(lost) / n
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("empirical loss %g, stationary %g", got, want)
	}
}

func TestStationaryLossGilbertClosedForm(t *testing.T) {
	for _, c := range [][2]float64{{0.1, 0.9}, {0.3, 0.3}, {0.02, 0.5}} {
		s := GilbertSpec(c[0], c[1])
		got, err := s.StationaryLoss()
		if err != nil {
			t.Fatal(err)
		}
		if want := GlobalLoss(c[0], c[1]); math.Abs(got-want) > 1e-9 {
			t.Fatalf("stationary loss %g, want %g for (p,q)=%v", got, want, c)
		}
	}
}

func TestStationaryLossInvalidSpec(t *testing.T) {
	if _, err := (MarkovSpec{}).StationaryLoss(); err == nil {
		t.Fatal("StationaryLoss accepted empty spec")
	}
}

func TestMarkovStateProgression(t *testing.T) {
	// Deterministic chain 0→1→0→1...
	spec := MarkovSpec{
		Transition: [][]float64{{0, 1}, {1, 0}},
		LossProb:   []float64{0, 1},
	}
	m, err := NewMarkov(spec, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		want := i%2 == 0 // first transition enters state 1 (loss)
		if got := m.Lost(); got != want {
			t.Fatalf("step %d: lost=%v, want %v (state %d)", i, got, want, m.State())
		}
	}
}

// TestMarkovResetIsFresh: a chain Reset on its reseeded rng loses
// exactly what a freshly built chain on that rng would.
func TestMarkovResetIsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(0))
	reused, _ := NewMarkov(threeState(), rng)
	for seed := int64(1); seed <= 5; seed++ {
		rng.Seed(seed)
		var want []bool
		fresh, _ := NewMarkov(threeState(), rng)
		for range 200 {
			want = append(want, fresh.Lost())
		}
		rng.Seed(seed)
		reused.Reset()
		for i, w := range want {
			if got := reused.Lost(); got != w {
				t.Fatalf("seed %d step %d: reset chain lost=%v, fresh %v", seed, i, got, w)
			}
		}
	}
}

func TestMarkovFactory(t *testing.T) {
	f := MarkovChannel(threeState())
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	ch := f.New(rand.New(rand.NewSource(1)))
	lost := 0
	for i := 0; i < 50000; i++ {
		if ch.Lost() {
			lost++
		}
	}
	if lost == 0 || lost == 50000 {
		t.Fatalf("degenerate markov channel: %d/50000", lost)
	}
	// An invalid model is an error from Validate, never a silently
	// perfect channel: a row summing to 1.2, a NaN entry, no states.
	overfull := threeState()
	overfull.Transition[1] = []float64{0.5, 0.6, 0.1}
	nan := threeState()
	nan.Transition[0][0] = math.NaN()
	for name, bad := range map[string]Spec{
		"row sums to 1.2": MarkovChannel(overfull),
		"NaN entry":       MarkovChannel(nan),
		"no states":       MarkovChannel(MarkovSpec{}),
		"p outside [0,1]": {Kind: "markov", P: 2, Q: 0.5},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
	}
}

func TestMarkovFractionalLossProbability(t *testing.T) {
	// Single state with 30% loss = Bernoulli.
	spec := MarkovSpec{Transition: [][]float64{{1}}, LossProb: []float64{0.3}}
	m, err := NewMarkov(spec, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if m.Lost() {
			lost++
		}
	}
	if got := float64(lost) / n; math.Abs(got-0.3) > 0.01 {
		t.Fatalf("loss %g, want 0.3", got)
	}
}
