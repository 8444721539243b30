package transport

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"fecperf/internal/codes"
	"fecperf/internal/sched"
	"fecperf/internal/spec"
	"fecperf/internal/wire"
)

// tableLines reads one of the shared testdata tables: one entry per
// line, #-comments and blank lines skipped.
func tableLines(t *testing.T, name string) []string {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + name)
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

// parseLine is what every embedder does around Delivery.Parse: split the
// line, reject unknown keys, parse.
func parseLine(line string) (Delivery, error) {
	var d Delivery
	_, params, err := spec.Split("d(" + line + ")")
	if err != nil {
		return d, err
	}
	if bad := params.Unknown(DeliveryKeys...); bad != nil {
		return d, fmt.Errorf("unknown keys %v", bad)
	}
	return d, d.Parse(params)
}

func renderLine(d Delivery) string {
	var parts []string
	for _, f := range d.Fields() {
		parts = append(parts, f.Key+"="+f.Value)
	}
	return strings.Join(parts, ",")
}

func TestDeliveryParseRoundTrip(t *testing.T) {
	for _, line := range tableLines(t, "delivery_lines.txt") {
		d, err := parseLine(line)
		if err != nil {
			t.Errorf("%q: %v", line, err)
			continue
		}
		back, err := parseLine(renderLine(d))
		if err != nil {
			t.Errorf("%q renders %q, which does not re-parse: %v", line, renderLine(d), err)
			continue
		}
		if !reflect.DeepEqual(d, back) {
			t.Errorf("%q drifted through %q:\n  %+v\n  %+v", line, renderLine(d), d, back)
		}
	}
	for _, entry := range tableLines(t, "delivery_bad_lines.txt") {
		line, want, _ := strings.Cut(entry, "\t")
		if _, err := parseLine(line); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: err = %v, want one containing %q", line, err, want)
		}
	}
}

// TestDeliveryParseKeepsAbsentKeys pins the WithSpec composition rule:
// a line sets the keys it names, zero values included, and nothing else.
func TestDeliveryParseKeepsAbsentKeys(t *testing.T) {
	d := Delivery{PayloadSize: 512, Window: 8, Seed: 4}
	if err := d.Parse(spec.Params{"window": "0", "rounds": "3"}); err != nil {
		t.Fatal(err)
	}
	if want := (Delivery{PayloadSize: 512, Rounds: 3, Seed: 4}); !reflect.DeepEqual(d, want) {
		t.Errorf("got %+v, want %+v", d, want)
	}
}

func TestDeliveryDefaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    Delivery
		want codes.Spec
	}{
		{"zero", Delivery{}, codes.Spec{Family: "rse", Ratio: DefaultRatio}},
		{"cast seed builds the code", Delivery{Seed: 9}, codes.Spec{Family: "rse", Ratio: DefaultRatio, Seed: 9}},
		{"codec seed wins", Delivery{Seed: 9, Codec: codes.Spec{Family: "ldgm", Seed: 2}},
			codes.Spec{Family: "ldgm", Ratio: DefaultRatio, Seed: 2}},
		{"no-fec carries no parity", Delivery{Codec: codes.Spec{Family: "no-fec", K: 8}},
			codes.Spec{Family: "no-fec", K: 8, Ratio: 1}},
		{"explicit ratio", Delivery{Codec: codes.Spec{Family: "ldgm-staircase", Ratio: 2.5}},
			codes.Spec{Family: "ldgm-staircase", Ratio: 2.5}},
	} {
		if got := tc.d.ResolvedCodec(); got != tc.want {
			t.Errorf("%s: ResolvedCodec = %+v, want %+v", tc.name, got, tc.want)
		}
	}

	d := Delivery{Codec: codes.Spec{Family: "ldgm-triangle"}, Scheduler: sched.TxModel2{}, NSent: 40, Seed: 3}
	oc, err := d.ObjectConfig(11)
	if err != nil {
		t.Fatal(err)
	}
	if oc.ObjectID != 11 || oc.Seed != 3 || oc.Family != wire.CodeLDGMTriangle || oc.Ratio != DefaultRatio ||
		oc.PayloadSize != DefaultPayloadSize || oc.Scheduler != (sched.TxModel2{}) || oc.NSent != 40 {
		t.Errorf("ObjectConfig = %+v", oc)
	}
}

// TestDeliveryValidateLiterals: a Go literal is held to what a parsed
// line is — ObjectConfig and NewCaster both refuse what Parse refuses.
func TestDeliveryValidateLiterals(t *testing.T) {
	for _, d := range []Delivery{
		{PayloadSize: -1}, {BatchSize: -1}, {Window: -1}, {Rounds: -1}, {NSent: -1},
		{Codec: codes.Spec{K: -1}}, {Codec: codes.Spec{Ratio: 0.5}}, {Codec: codes.Spec{Family: "rot13"}},
	} {
		if err := d.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil", d)
		}
		if _, err := d.ObjectConfig(1); err == nil {
			t.Errorf("ObjectConfig(%+v) succeeded", d)
		}
		if _, err := NewCaster(nil, nil, CasterConfig{Delivery: d}); err == nil {
			t.Errorf("NewCaster(%+v) succeeded", d)
		}
	}
}
