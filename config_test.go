package fecperf

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"fecperf/internal/channel"
	"fecperf/internal/engine"
	"fecperf/internal/session"
)

func TestParseSpecRoundTrip(t *testing.T) {
	lines := []string{
		"",
		"codec=rse(k=64,ratio=1.5)",
		"codec=rse(k=64,ratio=1.5,seed=7),sched=tx4,channel=gilbert(p=0.01,q=0.5),rate=5000",
		"codec=ldgm-staircase(k=20000,ratio=2.5,seed=1),sched=tx6(frac=0.3),trials=100,workers=8",
		"codec=no-fec(k=8),sched=repeat(x=3),channel=bernoulli(p=0.05)",
		"payload=1024,object=42,window=8,rounds=3,seed=-5,nsent=1200,pending=16,burst=64",
		"sched=carousel(inner=tx6(frac=0.5),rounds=3)",
	}
	for _, line := range lines {
		c, err := ParseSpec(line)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", line, err)
		}
		rendered := c.Spec()
		back, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("ParseSpec(%q).Spec() = %q does not re-parse: %v", line, rendered, err)
		}
		if back.Spec() != rendered {
			t.Errorf("spec drift: %q -> %q -> %q", line, rendered, back.Spec())
		}
	}

	// The delivery keys are feccastd's too: every line of the shared
	// table means the same Delivery under ParseSpec and ParseCastSpec
	// (the daemon pins the codec family and ratio defaults at admission,
	// nothing else differs), and every shared bad line fails in both.
	for _, line := range deliveryTable(t, "delivery_lines.txt") {
		c, err := ParseSpec(line)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", line, err)
			continue
		}
		if back, err := ParseSpec(c.Spec()); err != nil || !reflect.DeepEqual(back, c) {
			t.Errorf("ParseSpec drift: %q -> %q (%v)", line, c.Spec(), err)
		}
		cs, err := ParseCastSpec("name=x,addr=1:2," + line)
		if err != nil {
			t.Errorf("ParseCastSpec(%q): %v", line, err)
			continue
		}
		want := c.Delivery
		resolved := want.ResolvedCodec()
		want.Codec.Family, want.Codec.Ratio = resolved.Family, resolved.Ratio
		if !reflect.DeepEqual(cs.Delivery, want) {
			t.Errorf("%q: cast spec delivery %+v, config delivery %+v", line, cs.Delivery, want)
		}
	}
	for _, entry := range deliveryTable(t, "delivery_bad_lines.txt") {
		line, want, _ := strings.Cut(entry, "\t")
		_, errC := ParseSpec(line)
		_, errD := ParseCastSpec("name=x,addr=1:2," + line)
		for _, err := range []error{errC, errD} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%q: err = %v, want one containing %q", line, err, want)
			}
		}
	}
}

// deliveryTable reads one of the delivery-key tables the daemon's and
// transport's spec tests share (internal/transport/testdata).
func deliveryTable(t *testing.T, name string) []string {
	t.Helper()
	raw, err := os.ReadFile("internal/transport/testdata/" + name)
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

func TestParseSpecFields(t *testing.T) {
	c, err := ParseSpec("codec=rse(k=64,ratio=1.5),sched=tx2,channel=gilbert(p=0.01,q=0.79),rate=5000,trials=20,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if c.Codec.Family != "rse" || c.Codec.K != 64 || c.Codec.Ratio != 1.5 {
		t.Errorf("codec = %+v", c.Codec)
	}
	if c.Scheduler == nil || c.Scheduler.Name() != "tx2" {
		t.Errorf("scheduler = %v", c.Scheduler)
	}
	if c.Channel.String() != "gilbert(p=0.01,q=0.79)" {
		t.Errorf("channel = %v", c.Channel)
	}
	if c.Rate != 5000 || c.Trials != 20 || c.Seed != 9 {
		t.Errorf("scalars: %+v", c)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, line := range []string{
		"codec=bogus(k=3)",
		"codec=rse(k=64),shed=tx4", // typo key
		"rate=abc",
		"object=-1",
		"sched=tx9",
		"channel=gilbert(p=2,q=1)",
		"codec=rse(k=64,ratio=1.5", // unbalanced
	} {
		if _, err := ParseSpec(line); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", line)
		}
	}
}

func TestOptionsComposeWithSpec(t *testing.T) {
	var progress bool
	reg := NewMetricsRegistry()
	c, err := NewConfig(
		WithSpec("codec=rse(k=64,ratio=1.5),rate=1000,seed=3"),
		WithMetrics(reg),                     // a Go-only handle between two lines
		WithSpec("rate=2000"),                // a later line's key wins
		WithSpec("sched=tx5"),                // adds a key the first line left unset
		WithSpec("channel=bernoulli(p=0.1)"), // and another
		WithCastProgress(func(CastProgress) { progress = true }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rate != 2000 {
		t.Errorf("Rate = %g, want the later line's 2000", c.Rate)
	}
	if c.Codec.K != 64 || c.Seed != 3 {
		t.Errorf("first line's keys lost: %+v", c)
	}
	if c.Scheduler.Name() != "tx5" || c.Channel.String() != "bernoulli(p=0.1)" {
		t.Errorf("added keys missing: %+v", c)
	}
	if c.Metrics != reg || c.OnCastProgress == nil {
		t.Errorf("Go-only handles lost among the lines: %+v", c)
	} else if c.OnCastProgress(CastProgress{}); !progress {
		t.Error("OnCastProgress is not the callback given")
	}
	if got, want := c.Spec(), "codec=rse(k=64,ratio=1.5),sched=tx5,seed=3,channel=bernoulli(p=0.1),rate=2000"; got != want {
		t.Errorf("Spec() = %q, want %q (handles do not serialize)", got, want)
	}

	// The reverse order: a later line overlays only its own keys.
	c, err = NewConfig(WithSpec("rate=2000,sched=tx2"), WithSpec("rate=1000,seed=3"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Rate != 1000 || c.Seed != 3 || c.Scheduler.Name() != "tx2" {
		t.Errorf("second line over the first: %+v", c)
	}
}

// TestConfigKeysRejectOutOfRange: Config's own keys are validated like
// the delivery keys — a rate that is not a finite non-negative number
// and a negative burst, trials, workers or pending are errors, from a
// line and from every constructor that takes one.
func TestConfigKeysRejectOutOfRange(t *testing.T) {
	for _, line := range []string{
		"rate=-1",
		"rate=NaN",
		"rate=Inf",
		"rate=+Inf",
		"burst=-3",
		"trials=-5",
		"workers=-2",
		"pending=-4",
	} {
		key, _, _ := strings.Cut(line, "=")
		if _, err := ParseSpec(line); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("ParseSpec(%q): err = %v, want one naming %q", line, err, key)
		}
	}
	agg, err := Simulate(WithSpec("codec=rse(k=64,ratio=1.5),channel=gilbert(p=0.01,q=0.5),trials=-5"))
	if err == nil {
		t.Errorf("Simulate with trials=-5 = %+v, nil error", agg)
	}
	if _, err := NewCaster(&captureConn{}, strings.NewReader("x"), WithSpec("rate=NaN")); err == nil {
		t.Error("NewCaster accepted rate=NaN")
	}
	// Zero still selects the default for every one of them.
	if _, err := ParseSpec("rate=0,burst=0,trials=0,workers=0,pending=0"); err != nil {
		t.Errorf("zero values rejected: %v", err)
	}
}

func TestSimulateSpecMatchesSimRun(t *testing.T) {
	// One spec line must reproduce the engine run built by hand from the
	// same code, scheduler, channel, trials and seed.
	code, err := NewCode("ldgm-staircase", 500, 2.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	want := runPoint(engine.PointSpec{
		Code: code, Scheduler: TxModel2(),
		Channel: channel.GilbertChannel(0.01, 0.79),
		Trials:  10, Seed: 7,
	})
	got, err := Simulate(WithSpec(
		"codec=ldgm-staircase(k=500,ratio=2.5,seed=11),sched=tx2,channel=gilbert(p=0.01,q=0.79),trials=10,seed=7,workers=2"))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Simulate = %+v, engine.RunPoint = %+v", got, want)
	}
}

// TestDecoderKeySimulatesButDoesNotCast: decoder=gauss is a simulated
// receiver. Simulate runs it — on the peeler's seed, so the two see the
// same losses and the hybrid decodes no later — while every cast
// constructor refuses it: receivers on the wire always peel.
func TestDecoderKeySimulatesButDoesNotCast(t *testing.T) {
	const code, rest = "codec=ldgm-staircase(k=300,ratio=2.5,seed=4", "),sched=tx4,channel=gilbert(p=0.1,q=0.5),trials=10,seed=3"
	peel, err := Simulate(WithSpec(code + rest))
	if err != nil {
		t.Fatal(err)
	}
	gauss, err := Simulate(WithSpec(code + ",decoder=gauss" + rest))
	if err != nil {
		t.Fatal(err)
	}
	if gauss.ReceivedOverK != peel.ReceivedOverK || gauss.Failures > peel.Failures ||
		!(gauss.MeanIneff() < peel.MeanIneff()) {
		t.Errorf("decoder=gauss %+v, peeling %+v: want the same receptions and an earlier decode", gauss, peel)
	}
	spec := WithSpec("codec=ldgm-staircase(ratio=2.5,decoder=gauss)")
	if _, err := NewCaster(&captureConn{}, strings.NewReader("x"), spec); err == nil || !strings.Contains(err.Error(), "always peel") {
		t.Errorf("NewCaster with decoder=gauss: err = %v", err)
	}
	if _, err := NewObject([]byte("x"), spec); err == nil || !strings.Contains(err.Error(), "always peel") {
		t.Errorf("NewObject with decoder=gauss: err = %v", err)
	}
}

func TestSimulateDefaults(t *testing.T) {
	// No scheduler, no channel: tx4 over the perfect channel. Every
	// trial then needs exactly the ideal packet count.
	agg, err := Simulate(WithSpec("codec=rse(k=20,ratio=1.5),trials=5,seed=1"))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Failures != 0 {
		t.Errorf("perfect channel produced %d failures", agg.Failures)
	}
	if _, err := Simulate(); err == nil || !strings.Contains(err.Error(), "codec") {
		t.Errorf("Simulate without codec: err = %v", err)
	}
	if _, err := Simulate(WithSpec("codec=rse(ratio=1.5)")); err == nil {
		t.Error("Simulate without k succeeded")
	}
}

func TestSimulateRejectsInvalidChannel(t *testing.T) {
	// A Markov matrix whose row sums to 1.2 used to simulate as the
	// perfect channel (MeanIneff 1, no error).
	bad := func(c *Config) error {
		c.Channel = channel.MarkovChannel(channel.MarkovSpec{
			Transition: [][]float64{{0.9, 0.3}, {0.5, 0.5}},
			LossProb:   []float64{0, 1},
		})
		return nil
	}
	agg, err := Simulate(WithSpec("codec=rse(k=20,ratio=1.5),trials=3"), bad)
	if err == nil || agg.Trials != 0 {
		t.Errorf("Simulate = %+v, %v; want an error before the first trial", agg, err)
	}
}

func TestSimulateRatioDefaultMatchesDelivery(t *testing.T) {
	// A spec that omits ratio must mean the same code in simulation as
	// on the delivery path: the shared 1.5 default, never a silent
	// zero-parity code.
	const rest = ",trials=3,seed=2,channel=bernoulli(p=0.1)"
	implicit, err := Simulate(WithSpec("codec=rse(k=20)" + rest))
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Simulate(WithSpec("codec=rse(k=20,ratio=1.5)" + rest))
	if err != nil {
		t.Fatal(err)
	}
	if implicit != explicit {
		t.Errorf("implicit ratio %+v != explicit 1.5 %+v", implicit, explicit)
	}
	obj, err := NewObject(make([]byte, 4096), WithSpec("codec=rse(k=20),payload=256"))
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	if want := int(float64(obj.K())*1.5 + 0.5); obj.N() != want {
		t.Errorf("NewObject implicit ratio: n = %d for k = %d, want %d (ratio 1.5)", obj.N(), obj.K(), want)
	}
}

func TestNewObjectSpec(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	obj, err := NewObject(data, WithSpec("codec=rse(ratio=1.5),object=9,payload=16"))
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	if obj.ObjectID() != 9 {
		t.Errorf("ObjectID = %d, want 9", obj.ObjectID())
	}
	rx := session.NewReceiver()
	var got []byte
	for id := 0; id < obj.N(); id++ {
		d, err := obj.Datagram(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, done, data, err := rx.Ingest(d); err != nil {
			t.Fatal(err)
		} else if done {
			got = data
			break
		}
	}
	if string(got) != string(data) {
		t.Errorf("round trip = %q", got)
	}
}

func TestExperimentIDsSorted(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) == 0 {
		t.Fatal("no experiments registered")
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("ExperimentIDs not strictly sorted: %q before %q", ids[i-1], ids[i])
		}
	}
}

func FuzzConfigSpec(f *testing.F) {
	f.Add("codec=rse(k=64,ratio=1.5),sched=tx4,channel=gilbert(p=0.01,q=0.5),rate=5000")
	f.Add("payload=1024,object=42,window=8")
	f.Add("sched=carousel(inner=tx6(frac=0.5),rounds=3)")
	f.Add("codec=,sched=,channel=")
	f.Add("channel=markov(p=0.01,q=0.5)")
	f.Add("channel=noloss")
	f.Add("channel=no-loss,trials=3")
	f.Fuzz(func(t *testing.T, line string) {
		c, err := ParseSpec(line)
		if err != nil {
			return
		}
		rendered := c.Spec()
		back, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("ParseSpec(%q).Spec() = %q does not re-parse: %v", line, rendered, err)
		}
		if back.Spec() != rendered {
			t.Fatalf("spec drift: %q -> %q -> %q", line, rendered, back.Spec())
		}
	})
}
