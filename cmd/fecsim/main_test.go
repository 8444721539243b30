package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"fecperf/internal/engine"
)

func TestParseGrid(t *testing.T) {
	got, err := parseGrid("0, 0.05 ,0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 0.05 || got[2] != 0.5 {
		t.Fatalf("parseGrid = %v", got)
	}
}

func TestParseGridEmptyMeansDefault(t *testing.T) {
	got, err := parseGrid("")
	if err != nil || got != nil {
		t.Fatalf("parseGrid(\"\") = %v, %v", got, err)
	}
}

func TestParseGridErrors(t *testing.T) {
	for _, spec := range []string{"abc", "0.5,xyz", "1.5", "-0.1"} {
		if _, err := parseGrid(spec); err == nil {
			t.Errorf("parseGrid(%q) accepted", spec)
		}
	}
}

func TestPrintGridRenders(t *testing.T) {
	g := &engine.Grid{
		P:     []float64{0},
		Q:     []float64{0, 1},
		Cells: [][]engine.Aggregate{{{}, {}}},
	}
	var buf bytes.Buffer
	printGrid(&buf, g)
	// Cells with zero trials render "-".
	if !strings.Contains(buf.String(), "-") {
		t.Fatalf("empty aggregate rendered %q", buf.String())
	}
}

func fastArgs(extra ...string) []string {
	return append([]string{
		"-code", "ldgm-staircase", "-tx", "tx2", "-k", "60",
		"-trials", "4", "-grid", "0,0.1", "-workers", "2",
	}, extra...)
}

func TestRunEndToEnd(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run(context.Background(), fastArgs(), &out, &errs); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errs.String())
	}
	got := out.String()
	if !strings.Contains(got, "channel=gilbert") || !strings.Contains(got, "p\\q") {
		t.Fatalf("unexpected output:\n%s", got)
	}
	// p=0 row of a tx2 sweep decodes at inefficiency 1.000.
	if !strings.Contains(got, "1.000") {
		t.Fatalf("no perfect cell in output:\n%s", got)
	}
}

func TestRunParameterizedSchedulers(t *testing.T) {
	// The -tx flag accepts the parameterized grammar end to end: the
	// name travels through plan validation, checkpoint keys and the
	// engine's by-name materialisation.
	for _, tx := range []string{"tx6(frac=0.5)", "rx1(src=10)", "repeat(x=2)", "carousel(inner=tx2,rounds=2)"} {
		var out, errs bytes.Buffer
		if err := run(context.Background(), fastArgs("-tx", tx), &out, &errs); err != nil {
			t.Fatalf("-tx %s: %v (stderr: %s)", tx, err, errs.String())
		}
		if !strings.Contains(out.String(), tx) {
			t.Fatalf("-tx %s: header missing model:\n%s", tx, out.String())
		}
	}
	var out, errs bytes.Buffer
	if err := run(context.Background(), fastArgs("-tx", "tx6(frac=9)"), &out, &errs); err == nil {
		t.Fatal("accepted out-of-range tx6 fraction")
	}
}

func TestRunSpecOverridesFlags(t *testing.T) {
	// One unified spec line configures the whole sweep; flags it names
	// are superseded, flags it omits (here the grid) survive.
	var out, errs bytes.Buffer
	err := run(context.Background(), fastArgs(
		"-spec", "codec=rse(k=40,ratio=1.5),sched=tx5,channel=gilbert,trials=2,seed=9"),
		&out, &errs)
	if err != nil {
		t.Fatalf("run -spec: %v (stderr: %s)", err, errs.String())
	}
	got := out.String()
	if !strings.Contains(got, "rse") || !strings.Contains(got, "tx5") ||
		!strings.Contains(got, "k=40") || !strings.Contains(got, "trials=2") {
		t.Fatalf("spec keys did not reach the sweep header:\n%s", got)
	}

	// Channel families whose factory Name is not a parseable spec
	// (markov, no-loss) still select the right sweep family.
	for specChannel, family := range map[string]string{
		"markov(p=0.01,q=0.5)": "channel=markov",
		"noloss":               "channel=noloss",
	} {
		out.Reset()
		if err := run(context.Background(), fastArgs("-spec", "channel="+specChannel), &out, &errs); err != nil {
			t.Fatalf("-spec channel=%s: %v", specChannel, err)
		}
		if !strings.Contains(out.String(), family) {
			t.Fatalf("-spec channel=%s: header missing %q:\n%s", specChannel, family, out.String())
		}
	}

	if err := run(context.Background(), fastArgs("-spec", "codec=bogus(k=3)"), &out, &errs); err == nil {
		t.Fatal("accepted bogus codec spec")
	}
	if err := run(context.Background(), fastArgs("-spec", "shed=tx4"), &out, &errs); err == nil {
		t.Fatal("accepted unknown spec key")
	}
}

// TestRunSpecKeepsTheDecoder: -spec's codec decoder key reaches the
// plan. A k=100, 4-trial sweep with decoder=gauss names it in the header
// and measures other cells than the peeling sweep of the same line.
func TestRunSpecKeepsTheDecoder(t *testing.T) {
	sweep := func(codec string) string {
		var out, errs bytes.Buffer
		args := fastArgs("-spec", "codec="+codec+",sched=tx4,trials=4,seed=2", "-k", "100", "-grid", "0,0.05,0.2")
		if err := run(context.Background(), args, &out, &errs); err != nil {
			t.Fatalf("-spec codec=%s: %v (stderr: %s)", codec, err, errs.String())
		}
		return out.String()
	}
	peel, gauss := sweep("ldgm-staircase"), sweep("ldgm-staircase(decoder=gauss)")
	if !strings.HasPrefix(gauss, "# ldgm-staircase(decoder=gauss), tx4,") || !strings.Contains(gauss, "k=100, trials=4") {
		t.Fatalf("gauss sweep header:\n%s", gauss)
	}
	_, peelCells, _ := strings.Cut(peel, "\n")
	_, gaussCells, _ := strings.Cut(gauss, "\n")
	if peelCells == gaussCells {
		t.Fatalf("decoder=gauss measured what peeling did:\n%s", gauss)
	}
}

// TestRunSpecRejectsDroppedSettings: a -spec setting fecsim cannot
// apply is an error, not silently dropped. Codes are built from the run
// seed, so a differing codec seed is refused; delivery-only keys are too.
func TestRunSpecRejectsDroppedSettings(t *testing.T) {
	for _, tc := range []struct {
		line    string
		wantErr []string // substrings of the error; nil = must run
	}{
		{"codec=ldgm-staircase(k=60,ratio=2.5,seed=9),seed=1", []string{"codec seed 9", "run seed 1"}},
		{"codec=ldgm-staircase(k=60,ratio=2.5,seed=9)", []string{"codec seed 9", "run seed 1"}}, // -seed's default
		{"codec=ldgm-staircase(k=60,ratio=2.5,seed=1234),seed=1234", nil},
		{"codec=ldgm-staircase(k=60,ratio=2.5,seed=1)", nil},
		{"payload=64", []string{"payload"}},
		{"batch=8", []string{"batch"}},
		{"window=4", []string{"window"}},
		{"rounds=7", []string{"rounds"}},
		{"object=3", []string{"object"}},
		{"rate=5000", []string{"rate"}},
		{"burst=16", []string{"burst"}},
		{"pending=2", []string{"pending"}},
	} {
		var out, errs bytes.Buffer
		err := run(context.Background(), fastArgs("-spec", tc.line), &out, &errs)
		if tc.wantErr == nil {
			if err != nil {
				t.Errorf("-spec %q: %v", tc.line, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("-spec %q ran; want an error", tc.line)
			continue
		}
		for _, want := range tc.wantErr {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("-spec %q: error %q does not name %q", tc.line, err, want)
			}
		}
	}
}

func TestRunChannelFamilies(t *testing.T) {
	for _, family := range []string{"bernoulli", "markov", "noloss"} {
		var out, errs bytes.Buffer
		if err := run(context.Background(), fastArgs("-channel", family), &out, &errs); err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if !strings.Contains(out.String(), "channel="+family) {
			t.Fatalf("%s: header missing family", family)
		}
	}
	var out, errs bytes.Buffer
	if err := run(context.Background(), fastArgs("-channel", "smoke-signals"), &out, &errs); err == nil {
		t.Fatal("accepted unknown channel family")
	}
}

func TestRunResumeSkipsFinishedCells(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	var out1, errs1 bytes.Buffer
	if err := run(context.Background(), fastArgs("-resume", ckpt), &out1, &errs1); err != nil {
		t.Fatal(err)
	}
	// Second run with the same flags: every cell restores from the
	// checkpoint ("resumed" progress lines, no "done" ones) and the
	// rendered table is identical.
	var out2, errs2 bytes.Buffer
	if err := run(context.Background(), fastArgs("-resume", ckpt, "-progress"), &out2, &errs2); err != nil {
		t.Fatal(err)
	}
	if out2.String() != out1.String() {
		t.Fatalf("resumed table differs:\n%s\nvs\n%s", out2.String(), out1.String())
	}
	prog := errs2.String()
	if !strings.Contains(prog, "resumed") {
		t.Fatalf("no resumed cells reported:\n%s", prog)
	}
	if strings.Contains(prog, " done:") {
		t.Fatalf("resume recomputed cells:\n%s", prog)
	}
}

func fleetArgs(extra ...string) []string {
	return append([]string{
		"-code", "rse", "-tx", "tx2", "-ratio", "1.5", "-k", "64",
		"-fleet", "800", "-mix", "gilbert(p=0.1,q=0.5):2,bernoulli(p=0.05):1",
		"-workers", "2", "-seed", "5",
	}, extra...)
}

func TestRunFleetEndToEnd(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run(context.Background(), fleetArgs(), &out, &errs); err != nil {
		t.Fatalf("run -fleet: %v (stderr: %s)", err, errs.String())
	}
	got := out.String()
	for _, want := range []string{
		"fleet: rse, tx2", "receivers=800",
		"group", "all", "gilbert(p=0.1,q=0.5)", "bernoulli(p=0.05)",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("fleet output missing %q:\n%s", want, got)
		}
	}
}

func TestParseMix(t *testing.T) {
	mix, err := parseMix("gilbert(p=0.05,q=0.5):2, bernoulli(p=0.03):1.5,noloss")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 {
		t.Fatalf("parseMix split %d components", len(mix))
	}
	if mix[0].Channel.Kind != "gilbert" || mix[0].Channel.P != 0.05 || mix[0].Channel.Q != 0.5 || mix[0].Weight != 2 {
		t.Fatalf("component 0 = %+v", mix[0])
	}
	if mix[1].Channel.Kind != "bernoulli" || mix[1].Weight != 1.5 {
		t.Fatalf("component 1 = %+v", mix[1])
	}
	if mix[2].Channel.Kind != "noloss" || mix[2].Weight != 0 {
		t.Fatalf("component 2 = %+v", mix[2])
	}
}

// TestParseMixRejectsNonFiniteWeights: a weight must be a positive
// finite number; NaN and infinities parse as floats but are refused.
func TestParseMixRejectsNonFiniteWeights(t *testing.T) {
	for _, w := range []string{"nan", "NaN", "inf", "+Inf", "-inf", "1e309"} {
		if mix, err := parseMix("gilbert(p=0.1):" + w); err == nil {
			t.Errorf("weight %q accepted: %+v", w, mix)
		}
	}
}

func TestRunFleetRejectsBadMix(t *testing.T) {
	for _, mix := range []string{
		"",                    // empty
		"bogus(p=0.1)",        // unknown family
		"gilbert(p=2,q=0.5)",  // invalid parameters
		"markov(p=0.1,q=0.5)", // parses, but cannot be batch-stepped
		"gilbert(p=0.1):0",    // non-positive weight
		"gilbert(p=0.1):-1",   // negative weight
		"gilbert(p=0.1):1:2",  // double weight
		"gilbert(p=0.1):two",  // non-numeric weight
		"gilbert(p=0.1),,tx2", // empty component
	} {
		var out, errs bytes.Buffer
		if err := run(context.Background(), fleetArgs("-mix", mix), &out, &errs); err == nil {
			t.Errorf("-mix %q accepted", mix)
		}
	}
}

func TestRunFleetResumeSkipsFinishedPoints(t *testing.T) {
	// Interrupting a fleet run (here: a context cancelled before any
	// point completes) reports the resume hint and leaves the checkpoint
	// usable; a completed run then restores from it byte-identically
	// without recomputing the fleet.
	ckpt := filepath.Join(t.TempDir(), "fleet.jsonl")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var out0, errs0 bytes.Buffer
	if err := run(cancelled, fleetArgs("-resume", ckpt), &out0, &errs0); err == nil {
		t.Fatal("cancelled fleet run reported success")
	}
	if !strings.Contains(errs0.String(), "-resume") {
		t.Fatalf("no resume hint after interruption:\n%s", errs0.String())
	}

	var out1, errs1 bytes.Buffer
	if err := run(context.Background(), fleetArgs("-resume", ckpt), &out1, &errs1); err != nil {
		t.Fatal(err)
	}
	var out2, errs2 bytes.Buffer
	if err := run(context.Background(), fleetArgs("-resume", ckpt, "-progress"), &out2, &errs2); err != nil {
		t.Fatal(err)
	}
	if out2.String() != out1.String() {
		t.Fatalf("resumed fleet report differs:\n%s\nvs\n%s", out2.String(), out1.String())
	}
	prog := errs2.String()
	if !strings.Contains(prog, "resumed") || !strings.Contains(prog, "fleet(n=800") {
		t.Fatalf("no resumed fleet point reported:\n%s", prog)
	}
	if strings.Contains(prog, " done:") {
		t.Fatalf("resume recomputed the fleet:\n%s", prog)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run(context.Background(), []string{"-grid", "2,3"}, &out, &errs); err == nil {
		t.Fatal("accepted out-of-range grid")
	}
	if err := run(context.Background(), []string{"-code", "nope", "-grid", "0"}, &out, &errs); err == nil {
		t.Fatal("accepted unknown code")
	}
}
