package codes

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"fecperf/internal/ldpc"
)

func TestParseSpecRoundTrip(t *testing.T) {
	for _, s := range []Spec{
		{Family: "rse", K: 32, Ratio: 1.5},
		{Family: "rse", K: 32, Ratio: 1.5, Seed: 7},
		{Family: "rse16", K: 300, Ratio: 1.25},
		{Family: "ldgm-staircase", K: 1000, Ratio: 2.5, Seed: 42},
		{Family: "ldgm-triangle", K: 1000, Ratio: 2.5, Seed: -3},
		{Family: "no-fec", K: 8},
		{Family: "ldgm"},
		{Family: "ldgm-staircase", K: 1000, Ratio: 2.5, Seed: 42, Decoder: "gauss"},
		{Family: "ldgm", Decoder: "gauss"},
	} {
		back, err := ParseSpec(s.Name())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s.Name(), err)
		}
		if back != s {
			t.Errorf("round trip of %q = %+v, want %+v", s.Name(), back, s)
		}
	}
}

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec("rse")
	if err != nil {
		t.Fatal(err)
	}
	if s.K != 0 || s.Ratio != 0 || s.Seed != 0 || s.Family != "rse" {
		t.Errorf("bare spec = %+v, want zero params", s)
	}
	if _, err := s.New(); err == nil || !strings.Contains(err.Error(), "needs k") {
		t.Errorf("New without k: err = %v, want needs-k error", err)
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("rse(k=32,ratio=1.5)")
	if err != nil {
		t.Fatal(err)
	}
	l := c.Layout()
	if l.K != 32 || l.N != 48 {
		t.Errorf("rse(k=32,ratio=1.5) layout = %+v, want K=32 N=48", l)
	}
	if _, err := ByName("no-fec(k=8)"); err != nil {
		t.Errorf("no-fec(k=8): %v", err)
	}
	if _, err := ByName("ldgm-staircase(k=100,ratio=2.5,seed=7)"); err != nil {
		t.Errorf("ldgm-staircase: %v", err)
	}
}

func TestByNameErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"reed-solomon(k=3)",                  // unknown family
		"rse(k=0,ratio=1.5)",                 // k must be positive
		"rse(k=-4,ratio=1.5)",                // negative k
		"rse(k=32,ratio=0.5)",                // ratio below 1
		"rse(k=32,ratio=x)",                  // malformed ratio
		"rse(k=32,rato=1.5)",                 // typo parameter
		"rse(k=32",                           // unbalanced
		"no-fec(k=8,ratio=2)",                // no-fec cannot expand
		"rse(k=32)",                          // parity family without ratio
		"rse(seed=zz)",                       // malformed seed
		"rse(k=32,ratio=1.5,decoder=gauss)",  // no decoder key on rse,
		"rse16(k=32,ratio=1.5,decoder=peel)", // rse16
		"no-fec(k=8,decoder=peel)",           // or no-fec
		"ldgm-staircase(k=32,ratio=2.5,decoder=bp)",    // unknown decoder
		"ldgm-staircase(k=32,ratio=2.5,decoder=)",      // empty decoder
		"ldgm-staircase(k=32,ratio=2.5,decoder=Gauss)", // values are case-sensitive
	} {
		if _, err := ByName(in); err == nil {
			t.Errorf("ByName(%q) succeeded, want error", in)
		}
	}
}

// TestDecoderKey: decoder=peel is the default and Name omits it;
// decoder=gauss builds the peeling code's graph, named with "+gauss",
// whose simulated receiver is not the peeler; a literal Spec is held to
// what ParseSpec accepts.
func TestDecoderKey(t *testing.T) {
	peel, err := ParseSpec("ldgm-triangle(k=50,ratio=2,decoder=peel)")
	if err != nil {
		t.Fatal(err)
	}
	if peel.Decoder != "" || peel.Name() != "ldgm-triangle(k=50,ratio=2)" {
		t.Fatalf("decoder=peel parsed to %+v, named %q", peel, peel.Name())
	}
	gauss := peel
	gauss.Decoder = "gauss"
	if gauss.Name() != "ldgm-triangle(k=50,ratio=2,decoder=gauss)" {
		t.Fatalf("gauss spec named %q", gauss.Name())
	}
	p, err := peel.New()
	if err != nil {
		t.Fatal(err)
	}
	g, err := gauss.New()
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "ldgm-triangle+gauss" || g.Layout().N != p.Layout().N {
		t.Fatalf("gauss code %s n=%d, peeling code %s n=%d", g.Name(), g.Layout().N, p.Name(), p.Layout().N)
	}
	if pe, ge := p.(*ldpc.Code), g.(*ldpc.Code); !slices.Equal(edges(pe), edges(ge)) {
		t.Fatal("decoder=gauss built another graph")
	}
	if fmt.Sprintf("%T", g.NewReceiver()) == fmt.Sprintf("%T", p.NewReceiver()) {
		t.Fatalf("decoder=gauss receiver is the peeler's %T", p.NewReceiver())
	}
	for _, bad := range []Spec{
		{Family: "rse", K: 32, Ratio: 1.5, Decoder: "gauss"},
		{Family: "ldgm", K: 32, Ratio: 2, Decoder: "peel"},
		{Family: "ldgm", K: 32, Ratio: 2, Decoder: "bp"},
	} {
		if c, err := bad.New(); err == nil || c != nil {
			t.Errorf("%+v: New = %v, %v; want a nil codec and an error", bad, c, err)
		}
	}
}

// edges lists an LDGM code's equations, variable by variable.
func edges(c *ldpc.Code) []int32 {
	var out []int32
	for i := range c.NumEquations() {
		out = append(append(out, c.EquationVars(i)...), -1)
	}
	return out
}

func FuzzParseSpec(f *testing.F) {
	f.Add("rse(k=32,ratio=1.5,seed=7)")
	f.Add("ldgm-staircase(k=20000,ratio=2.5)")
	f.Add("no-fec(k=8)")
	f.Add("rse(k=,ratio=)")
	f.Add("rse((((")
	f.Add("ldgm-staircase(k=100,ratio=2.5,decoder=gauss)")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		// Round-trip property: whatever parses renders to a canonical
		// name that parses back to the identical spec.
		back, err := ParseSpec(s.Name())
		if err != nil {
			t.Fatalf("ParseSpec(%q).Name() = %q does not re-parse: %v", in, s.Name(), err)
		}
		if back != s {
			t.Fatalf("round trip drift: %q -> %+v -> %q -> %+v", in, s, s.Name(), back)
		}
	})
}
