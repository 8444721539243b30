package daemon

import (
	"os"
	"strings"
	"testing"

	"fecperf/internal/codes"
	"fecperf/internal/sched"
	"fecperf/internal/transport"
)

// deliveryTable reads one of the delivery-key tables the facade's and
// transport's spec tests share (internal/transport/testdata).
func deliveryTable(t *testing.T, name string) []string {
	t.Helper()
	raw, err := os.ReadFile("../transport/testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, l := range strings.Split(string(raw), "\n") {
		if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "#") {
			out = append(out, l)
		}
	}
	return out
}

func TestParseCastSpecRoundTrip(t *testing.T) {
	line := "cast(name=docs,addr=239.1.2.3:9900,file=/srv/docs.tar,weight=2,codec=rse(k=64,ratio=1.5),sched=tx4,payload=512,batch=32,window=8,rounds=4,nsent=90,seed=7,object=42)"
	cs, err := ParseCastSpec(line)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Name != "docs" || cs.Addr != "239.1.2.3:9900" || cs.File != "/srv/docs.tar" {
		t.Errorf("identity fields: %+v", cs)
	}
	if cs.Weight != 2 || cs.Codec.Family != "rse" || cs.Codec.K != 64 || cs.Codec.Ratio != 1.5 {
		t.Errorf("weight/codec: %+v", cs)
	}
	if cs.SchedulerName() != "tx4" || cs.PayloadSize != 512 || cs.BatchSize != 32 || cs.Window != 8 ||
		cs.Rounds != 4 || cs.NSent != 90 || cs.Seed != 7 || cs.BaseObjectID != 42 {
		t.Errorf("tuning fields: %+v", cs)
	}
	if cs.Mode != ModeCarousel {
		t.Errorf("Mode = %q, want default %q", cs.Mode, ModeCarousel)
	}
	// Canonical render re-parses to the same spec.
	again, err := ParseCastSpec(cs.Spec())
	if err != nil {
		t.Fatalf("reparsing %q: %v", cs.Spec(), err)
	}
	if again.Spec() != cs.Spec() {
		t.Errorf("round trip drifted:\n  first  %s\n  second %s", cs.Spec(), again.Spec())
	}

	// The delivery keys are the facade's: every line of the shared table
	// parses here, round-trips, and every shared bad line fails the same.
	for _, line := range deliveryTable(t, "delivery_lines.txt") {
		cs, err := ParseCastSpec("name=x,addr=1:2," + line)
		if err != nil {
			t.Errorf("%q: %v", line, err)
			continue
		}
		again, err := ParseCastSpec(cs.Spec())
		if err != nil || again.Spec() != cs.Spec() {
			t.Errorf("%q drifted: %q -> %q (%v)", line, cs.Spec(), again.Spec(), err)
		}
	}
	bad := append(deliveryTable(t, "delivery_bad_lines.txt"),
		"rate=5000\trate", "burst=64\tburst") // the shared pacer owns pacing
	for _, entry := range bad {
		line, want, _ := strings.Cut(entry, "\t")
		if _, err := ParseCastSpec("name=x,addr=1:2," + line); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: err = %v, want one containing %q", line, err, want)
		}
	}
}

// TestCastSpecOmittedRatioDefaults pins the one omitted-ratio rule: a
// parity-bearing family without ratio= runs at transport.DefaultRatio,
// as it does through the facade; no-fec carries no parity.
func TestCastSpecOmittedRatioDefaults(t *testing.T) {
	for line, want := range map[string]float64{
		"codec=ldgm-staircase":      transport.DefaultRatio,
		"codec=rse(k=64)":           transport.DefaultRatio,
		"codec=no-fec":              1,
		"codec=ldgm(ratio=2.5)":     2.5,
		"sched=tx2":                 transport.DefaultRatio,
		"codec=ldgm-triangle(k=10)": transport.DefaultRatio,
	} {
		cs, err := ParseCastSpec("name=x,addr=1:2," + line)
		if err != nil {
			t.Errorf("%q: %v", line, err)
			continue
		}
		if cs.Codec.Ratio != want {
			t.Errorf("%q: ratio %g, want %g", line, cs.Codec.Ratio, want)
		}
	}
}

func TestParseCastSpecBareLine(t *testing.T) {
	cs, err := ParseCastSpec("name=a,addr=localhost:9,mode=stream,file=/dev/stdin")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Name != "a" || cs.Mode != ModeStream {
		t.Errorf("bare key=value line parsed to %+v", cs)
	}
	// Defaults applied.
	if cs.Weight != 1 || cs.Codec.Family != "rse" || cs.Codec.Ratio != 1.5 {
		t.Errorf("defaults: %+v", cs)
	}
}

func TestParseCastSpecErrors(t *testing.T) {
	cases := map[string]string{
		"addr=1:2":                                "needs name",
		"name=x":                                  "needs addr",
		"name=x,addr=1:2,mode=parcel":             "unknown mode",
		"name=x,addr=1:2,weight=-1":               "weight must be positive",
		"name=x,addr=1:2,codec=rot13":             "unknown codec",
		"name=x,addr=1:2,sched=tx99":              "tx99",
		"name=x,addr=1:2,frobnicate=1":            "no parameters",
		"name=x,addr=1:2,batch=-4":                "must not be negative",
		"name=x,addr=1:2,codec=no-fec,seed=horse": "not an integer",
	}
	for line, want := range cases {
		if _, err := ParseCastSpec(line); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseCastSpec(%q) = %v, want error containing %q", line, err, want)
		}
	}
}

func TestDiffReloadImmutableKeys(t *testing.T) {
	base, err := ParseCastSpec("name=x,addr=1:2,codec=rse(ratio=1.5),payload=1024,seed=3")
	if err != nil {
		t.Fatal(err)
	}

	// Every mutable key at once: accepted.
	next := base
	next.Weight = 4
	next.Codec.Ratio = 2.0
	next.Scheduler = sched.TxModel1{}
	next.BatchSize = 8
	next.Rounds = 9
	next.NSent = 50
	if err := diffReload(base, next); err != nil {
		t.Errorf("mutable-only diff rejected: %v", err)
	}

	// Immutable keys: rejected, all named in the error.
	bad := base
	bad.Addr = "other:9"
	bad.PayloadSize = 512
	bad.Codec.Family = "ldgm-staircase"
	err = diffReload(base, bad)
	if err == nil {
		t.Fatal("immutable diff accepted")
	}
	for _, key := range []string{"addr", "payload", "codec family", "immutable"} {
		if !strings.Contains(err.Error(), key) {
			t.Errorf("diff error %q does not name %q", err, key)
		}
	}

	// Writing out a default the running line relied on changes nothing,
	// in either direction.
	bare, err := ParseCastSpec("name=x,addr=1:2,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"name=x,addr=1:2,seed=3,payload=1024",
		"name=x,addr=1:2,seed=3,codec=rse(ratio=1.5)",
		"name=x,addr=1:2,seed=3,codec=rse(seed=3)",
	} {
		explicit, err := ParseCastSpec(line)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffReload(bare, explicit); err != nil {
			t.Errorf("reload to %q rejected: %v", line, err)
		}
		if err := diffReload(explicit, bare); err != nil {
			t.Errorf("reload from %q rejected: %v", line, err)
		}
	}
	// A literal spec that never met normalize is held to the same rule.
	literal := CastSpec{Name: "x", Addr: "1:2", Mode: ModeStream}
	resolved := literal
	resolved.Codec = codes.Spec{Family: "rse", Ratio: 1.5}
	if err := diffReload(literal, resolved); err != nil {
		t.Errorf("literal spec vs its resolved form rejected: %v", err)
	}

	// Stream casts: ratio/sched/batch become immutable too.
	sbase := base
	sbase.Mode = ModeStream
	snext := sbase
	snext.Codec.Ratio = 2.0
	if err := diffReload(sbase, snext); err == nil || !strings.Contains(err.Error(), "codec ratio") {
		t.Errorf("stream ratio change = %v, want immutable error", err)
	}
	wOnly := sbase
	wOnly.Weight = 3
	if err := diffReload(sbase, wOnly); err != nil {
		t.Errorf("stream weight change rejected: %v", err)
	}
}
