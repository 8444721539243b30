package transport

import (
	"fmt"
	"strconv"

	"fecperf/internal/codes"
	"fecperf/internal/core"
	"fecperf/internal/sched"
	"fecperf/internal/session"
	"fecperf/internal/spec"
	"fecperf/internal/wire"
)

// Delivery is the one description of how bytes go on the air — the
// paper's recommendation tuple (code, transmission model, expansion
// ratio, n_sent) plus the framing that carries it. The facade's Config,
// the daemon's CastSpec and CasterConfig all embed it, so a spec line
// means the same code and the same packet order wherever it runs. It
// owns the nine keys' parse, render, validation and zero-means-default
// resolution; a zero field means "the default".
type Delivery struct {
	// Codec is the FEC code (key "codec", e.g. codec=rse(k=64,ratio=1.5)).
	// Family defaults to rse; the ratio to DefaultRatio (1 for no-fec);
	// the construction seed to Seed; k to DefaultChunkK for a train, while
	// a single object's size fixes its own.
	Codec codes.Spec
	// Scheduler orders each round's packets (key "sched", e.g. sched=tx4
	// or sched=tx6(frac=0.3); default Tx_model_4).
	Scheduler core.Scheduler
	// PayloadSize is the symbol size in bytes (key "payload", default
	// DefaultPayloadSize).
	PayloadSize int
	// BatchSize is the datagrams per flush of the send loop, or per read
	// of a collector (key "batch"; 0 = one per flush, above 64 clamped).
	BatchSize int
	// Window bounds how many chunks a train keeps encoded and on the air
	// at once (key "window", default DefaultWindow).
	Window int
	// Rounds is the carousel rounds per window group of a train (default
	// DefaultGroupRounds), or a whole-object carousel's total (0 = until
	// stopped) (key "rounds").
	Rounds int
	// NSent truncates each round of an object to its first NSent
	// scheduled packets — the paper's Section-6 n_sent (key "nsent").
	// Trains send whole rounds and ignore it.
	NSent int
	// Seed fixes scheduling randomness, and code construction unless
	// Codec.Seed says otherwise (key "seed").
	Seed int64
	// BaseObjectID is the object's ID; for a train the manifest rides at
	// it and chunk i at BaseObjectID+1+i (key "object").
	BaseObjectID uint32
}

// DeliveryKeys are the spec keys Delivery parses, in render order.
var DeliveryKeys = []string{
	"codec", "sched", "payload", "batch", "window", "rounds", "nsent", "seed", "object",
}

// intKey is one of the plain non-negative integer keys.
type intKey struct {
	key string
	v   *int
}

// intKeys lists the integer keys in render order — the one table their
// parse, validation and render walk.
func (d *Delivery) intKeys() []intKey {
	return []intKey{
		{"payload", &d.PayloadSize}, {"batch", &d.BatchSize}, {"window", &d.Window},
		{"rounds", &d.Rounds}, {"nsent", &d.NSent},
	}
}

// Parse sets every delivery key present in p and validates the result;
// absent keys keep their current value.
func (d *Delivery) Parse(p spec.Params) error {
	if v, ok := p["codec"]; ok {
		c, err := codes.ParseSpec(v)
		if err != nil {
			return err
		}
		d.Codec = c
	}
	if v, ok := p["sched"]; ok {
		s, err := sched.ByName(v)
		if err != nil {
			return err
		}
		d.Scheduler = s
	}
	for _, f := range d.intKeys() {
		v, ok, err := p.Int(f.key)
		if err != nil {
			return err
		}
		if ok {
			*f.v = v
		}
	}
	if v, ok, err := p.Int64("seed"); err != nil {
		return err
	} else if ok {
		d.Seed = v
	}
	if v, ok, err := p.Uint32("object"); err != nil {
		return err
	} else if ok {
		d.BaseObjectID = v
	}
	return d.Validate()
}

// Validate rejects values no delivery can run with. Zero is always
// valid: it selects the default.
func (d Delivery) Validate() error {
	for _, f := range append(d.intKeys(), intKey{"codec k", &d.Codec.K}) {
		if *f.v < 0 {
			return fmt.Errorf("transport: %s must not be negative, got %d", f.key, *f.v)
		}
	}
	if d.Codec.Ratio != 0 && !(d.Codec.Ratio >= 1) { // also rejects NaN
		return fmt.Errorf("transport: FEC expansion ratio %g below 1", d.Codec.Ratio)
	}
	if d.Codec.Family != "" {
		if _, err := d.Codec.WireFamily(); err != nil {
			return err
		}
	}
	return nil
}

// SchedulerName is the scheduler's spec name, "" when unset.
func (d Delivery) SchedulerName() string {
	if d.Scheduler == nil {
		return ""
	}
	return d.Scheduler.Name()
}

// Fields renders the non-zero keys in DeliveryKeys order; Parse of the
// rendered fields reproduces d for every scheduler whose Name
// round-trips through sched.ByName (all built-ins).
func (d Delivery) Fields() []spec.Field {
	var out []spec.Field
	add := func(key, value string) { out = append(out, spec.Field{Key: key, Value: value}) }
	if d.Codec.Family != "" {
		add("codec", d.Codec.Name())
	}
	if d.Scheduler != nil {
		add("sched", d.Scheduler.Name())
	}
	for _, f := range d.intKeys() {
		if *f.v != 0 {
			add(f.key, strconv.Itoa(*f.v))
		}
	}
	if d.Seed != 0 {
		add("seed", strconv.FormatInt(d.Seed, 10))
	}
	if d.BaseObjectID != 0 {
		add("object", strconv.FormatUint(uint64(d.BaseObjectID), 10))
	}
	return out
}

// ResolvedCodec is the code the delivery runs, defaults applied: family
// rse, ratio DefaultRatio (1 for no-fec, which carries no parity),
// construction seed the cast's Seed. K stays as given.
func (d Delivery) ResolvedCodec() codes.Spec {
	c := d.Codec
	if c.Family == "" {
		c.Family = "rse"
	}
	if c.Ratio == 0 {
		c.Ratio = DefaultRatio
		if c.Family == "no-fec" {
			c.Ratio = 1
		}
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// ObjectConfig is the session configuration of one object of the
// delivery: the resolved code (its seed the construction seed) and
// payload size under the given object ID, with the delivery's scheduler
// and n_sent. Every cast path passes here, so it refuses a codec
// decoder: receivers build their codec from the integers on the wire and
// always peel, and the key only selects a simulated receiver.
func (d Delivery) ObjectConfig(id uint32) (session.SenderConfig, error) {
	if err := d.Validate(); err != nil {
		return session.SenderConfig{}, err
	}
	c := d.ResolvedCodec()
	if c.Decoder != "" {
		return session.SenderConfig{}, fmt.Errorf("transport: codec %s: decoder=%s selects a simulated receiver; receivers on the wire always peel",
			c.Name(), c.Decoder)
	}
	family, err := wire.FamilyByName(c.Family)
	if err != nil {
		return session.SenderConfig{}, err
	}
	payload := d.PayloadSize
	if payload == 0 {
		payload = DefaultPayloadSize
	}
	return session.SenderConfig{
		ObjectID:    id,
		Family:      family,
		Ratio:       c.Ratio,
		PayloadSize: payload,
		Seed:        c.Seed,
		Scheduler:   d.Scheduler,
		NSent:       d.NSent,
	}, nil
}
