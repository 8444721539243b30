package channel

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

func TestParseName(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"gilbert(p=0.01,q=0.5)", GilbertChannel(0.01, 0.5)},
		{"gilbert", GilbertChannel(0, 1)},
		{"bernoulli(p=0.05)", BernoulliChannel(0.05)},
		{"markov(p=0.01,q=0.5)", Spec{Kind: "markov", P: 0.01, Q: 0.5}},
		{"markov(p=0.2)", Spec{Kind: "markov", P: 0.2, Q: 1}},
		{"noloss", NoLossChannel()},
		{"no-loss", NoLossChannel()},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Parse(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestParseNameRoundTrip(t *testing.T) {
	for _, s := range []Spec{
		GilbertChannel(0.01, 0.79),
		GilbertChannel(0.25, 0.25),
		BernoulliChannel(0.1),
		{Kind: "markov", P: 0.01, Q: 0.5},
		NoLossChannel(),
	} {
		back, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Errorf("round trip of %q = %#v, want %#v", s, back, s)
		}
	}
}

// malformedSpecs is shared with FuzzChannelParse's seed corpus.
var malformedSpecs = []string{
	"",
	"wat",
	"trace",               // a pattern has no one-line form
	"gilbert(p=2,q=0.5)",  // invalid probability
	"gilbert(p=NaN)",      // not a probability either
	"gilbert(r=1)",        // unknown parameter
	"gilbert(p=x)",        // malformed number
	"markov(p=0.1,q=-1)",  // invalid probability
	"markov(h=1f)",        // the explicit-matrix Key is not a spec
	"bernoulli(p=1.5)",    // out of range
	"bernoulli(q=0.5)",    // unknown parameter
	"noloss(p=1)",         // takes no parameters
	"gilbert(p=0.1,q=0.5", // unbalanced
}

func TestParseNameErrors(t *testing.T) {
	for _, in := range malformedSpecs {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestByNameResolvesAllFamilies(t *testing.T) {
	for _, kind := range Kinds {
		s := Spec{Kind: kind, P: 0.1, Q: 0.5}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if back, err := Parse(s.String()); err != nil || back.Kind != kind {
			t.Fatalf("%s: Parse(%q) = %+v, %v", kind, s, back, err)
		}
		ch := s.New(rand.New(rand.NewSource(1)))
		for i := 0; i < 100; i++ {
			ch.Lost() // must not panic
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if err := (Spec{Kind: "carrier-pigeon", P: 0.1, Q: 0.5}).Validate(); err == nil {
		t.Fatal("accepted unknown kind")
	}
	if err := (Spec{}).Validate(); err == nil {
		t.Fatal("accepted the unset spec")
	}
	if err := TraceChannel(nil, false).Validate(); err == nil {
		t.Fatal("accepted a trace without a pattern")
	}
}

func TestByNameSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ch := Spec{Kind: "noloss", P: 0.9, Q: 0.9}.New(rng) // both ignored
	for i := 0; i < 50; i++ {
		if ch.Lost() {
			t.Fatal("noloss lost a packet")
		}
	}
	lost := 0
	ch = Spec{Kind: "bernoulli", P: 0.3, Q: 0}.New(rng) // q ignored
	for i := 0; i < 10000; i++ {
		if ch.Lost() {
			lost++
		}
	}
	if rate := float64(lost) / 10000; rate < 0.27 || rate > 0.33 {
		t.Fatalf("bernoulli(0.3) observed loss rate %g", rate)
	}
}

func TestThreeStateSpecValidForGridCorners(t *testing.T) {
	for _, p := range []float64{0, 0.5, 1} {
		for _, q := range []float64{0, 0.5, 1} {
			spec := ThreeStateSpec(p, q)
			if err := spec.Validate(); err != nil {
				t.Fatalf("ThreeStateSpec(%g, %g): %v", p, q, err)
			}
		}
	}
	// p=0 from the good start state never degrades: loss stays zero.
	loss, err := ThreeStateSpec(0, 0.5).StationaryLoss()
	if err != nil {
		t.Fatal(err)
	}
	if loss != 0 {
		t.Fatalf("p=0 stationary loss %g, want 0", loss)
	}
}

func TestTraceFactoryRestartsPerTrial(t *testing.T) {
	f := TraceChannel([]bool{true, false}, false)
	for trial := 0; trial < 3; trial++ {
		ch := f.New(nil)
		if !ch.Lost() || ch.Lost() {
			t.Fatalf("trial %d did not replay the trace from the start", trial)
		}
	}
}

// TestSpecFrozenFormats pins the two encodings other files depend on:
// Key is matched by checkpoints and hashed into every point seed, the
// JSON is what plans and points store. Neither may drift.
func TestSpecFrozenFormats(t *testing.T) {
	for _, c := range []struct {
		spec      Spec
		key, blob string
	}{
		{NoLossChannel(), "noloss", `{"kind":"noloss"}`},
		{BernoulliChannel(0.05), "bernoulli(p=0.05)", `{"kind":"bernoulli","p":0.05}`},
		{GilbertChannel(0.01, 0.79), "gilbert(p=0.01,q=0.79)", `{"kind":"gilbert","p":0.01,"q":0.79}`},
		{Spec{Kind: "markov", P: 0.1, Q: 0.5}, "markov(p=0.1,q=0.5)", `{"kind":"markov","p":0.1,"q":0.5}`},
		{MarkovChannel(GilbertSpec(0.1, 0.5)), "markov(h=b8f87372690db712)",
			`{"kind":"markov","markov":{"Transition":[[0.9,0.1],[0.5,0.5]],"LossProb":[0,1],"Start":0}}`},
		{TraceChannel([]bool{true, false, false}, true), "trace(n=3,wrap=false,h=a09aca4f35aa53d6)",
			`{"kind":"trace","trace":[true,false,false],"nowrap":true}`},
	} {
		if got := c.spec.Key(); got != c.key {
			t.Errorf("Key = %q, want %q", got, c.key)
		}
		blob, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != c.blob {
			t.Errorf("%s: JSON = %s, want %s", c.key, blob, c.blob)
		}
		var back Spec
		if err := json.Unmarshal(blob, &back); err != nil || !reflect.DeepEqual(back, c.spec) {
			t.Errorf("%s: JSON round trip = %+v, %v", c.key, back, err)
		}
	}
}

// FuzzChannelParse checks the grammar's contract on arbitrary text:
// whatever Parse accepts is valid, renders to a string Parse reads back
// into the same value, and builds a chain and a stepper without
// panicking.
func FuzzChannelParse(f *testing.F) {
	for _, s := range []string{
		"gilbert(p=0.01,q=0.5)", "gilbert(p=0.01,q=0.79)", "gilbert(p=0.05,q=0.5)", "gilbert",
		"bernoulli(p=0.05)", "bernoulli(p=0.03)", "markov(p=0.01,q=0.5)", "markov", "noloss", "no-loss",
		" gilbert( p = 1 , q = 0 ) ", "bernoulli(p=0x1p-2)", "gilbert(p=-0)",
	} {
		f.Add(s)
	}
	for _, s := range malformedSpecs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse(%q) = %+v is invalid: %v", text, s, err)
		}
		back, err := Parse(s.String())
		if err != nil || !reflect.DeepEqual(back, s) {
			t.Fatalf("Parse(%q) = %+v renders %q, which parses to %+v, %v", text, s, s, back, err)
		}
		ch := s.New(rand.New(rand.NewSource(1)))
		for i := 0; i < 8; i++ {
			ch.Lost()
		}
		if st, ok := s.Stepper(); ok {
			var state uint64
			var lost bool
			st.StepMask(&state, &lost, 64)
		}
	})
}
