// Package daemon implements feccastd's engine: a long-running server
// multiplexing many concurrent casts — file-object carousels and
// streaming Caster trains — over one shared hierarchical pacer
// (transport.SharedPacer) and one batched socket per destination group.
// Casts have a full lifecycle: they are added and removed while the
// daemon runs, their mutable parameters hot-reload at round boundaries,
// and a graceful drain finishes every in-flight round before the daemon
// exits. See cmd/feccastd for the process wrapper (signals, control
// endpoint, spec files) and the fecperf facade for the embeddable API.
package daemon

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"fecperf/internal/spec"
	"fecperf/internal/transport"
)

// Cast modes.
const (
	// ModeCarousel serves encoded file objects as an infinite (or
	// bounded) carousel — the paper's broadcast-disk shape.
	ModeCarousel = "carousel"
	// ModeStream cuts a byte stream into FEC-encoded chunk trains via
	// transport.Caster and finishes when the source does.
	ModeStream = "stream"
)

// CastSpec describes one cast, parseable from a single spec-grammar
// line (the PR-5 grammar every registry shares):
//
//	cast(name=docs,addr=239.1.2.3:9900,file=/srv/docs.tar,codec=rse(ratio=1.5),weight=2)
//
// The enclosing "cast(...)" wrapper is optional on input — a bare
// "name=docs,addr=..." line means the same — and always present in the
// canonical render (Spec). Data and Source exist for embedding: they
// are Go-only source overrides with no spec-line form.
type CastSpec struct {
	// Name identifies the cast within the daemon (control-plane key and
	// metrics label). Required, unique.
	Name string
	// Addr is the destination group ("host:port"). Required. Casts with
	// the same Addr share one batched socket.
	Addr string
	// Mode is ModeCarousel (default) or ModeStream.
	Mode string
	// File is the source path: the carousel object's bytes, or the
	// stream to cast. Required unless Data/Source is set in-process.
	File string
	// Weight is the cast's share of the daemon's line rate (default 1).
	// Mutable at runtime.
	Weight float64
	// Delivery holds the nine delivery keys the facade's Config shares —
	// codec, sched, payload, batch, window, rounds, nsent, seed, object —
	// with the same defaults. Daemon specifics: batch defaults to the
	// daemon's; rounds bounds a carousel (0 = infinite) or sets a stream's
	// per-group rounds; a carousel derives each object's construction
	// seed from (construction seed, object id), so two objects of one
	// cast never share an LDGM graph. Ratio, sched, batch, rounds and
	// nsent are mutable on a carousel; the rest is what receivers joined
	// on and is not.
	transport.Delivery

	// Data, when set, is the in-process carousel source (File unused).
	Data []byte
	// Source, when set, is the in-process stream source (File unused).
	Source io.Reader
}

// castSpecKeys are the accepted spec-line parameters: the cast's own and
// the delivery keys. Pacing keys (rate, burst) are not among them: the
// daemon's shared pacer owns pacing.
var castSpecKeys = append([]string{"name", "addr", "mode", "file", "weight"}, transport.DeliveryKeys...)

// ParseCastSpec parses one cast spec line. Both the canonical
// "cast(key=value,...)" form and a bare "key=value,..." list are
// accepted; name and addr are required.
func ParseCastSpec(line string) (CastSpec, error) {
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, "cast(") {
		line = "cast(" + line + ")"
	}
	base, params, err := spec.Split(line)
	if err != nil {
		return CastSpec{}, fmt.Errorf("daemon: cast spec: %w", err)
	}
	if base != "cast" {
		return CastSpec{}, fmt.Errorf("daemon: cast spec %q: want base \"cast\"", line)
	}
	if bad := params.Unknown(castSpecKeys...); bad != nil {
		return CastSpec{}, fmt.Errorf("daemon: cast spec has no parameters %v (want %v)", bad, castSpecKeys)
	}
	cs := CastSpec{
		Name: params["name"],
		Addr: params["addr"],
		Mode: params["mode"],
		File: params["file"],
	}
	if cs.Name == "" {
		return CastSpec{}, fmt.Errorf("daemon: cast spec %q needs name=", line)
	}
	if cs.Addr == "" {
		return CastSpec{}, fmt.Errorf("daemon: cast spec %q needs addr=", line)
	}
	if w, ok, err := params.Float("weight"); err != nil {
		return CastSpec{}, fmt.Errorf("daemon: cast %s: %w", cs.Name, err)
	} else if ok {
		if w <= 0 {
			return CastSpec{}, fmt.Errorf("daemon: cast %s: weight must be positive, got %g", cs.Name, w)
		}
		cs.Weight = w
	}
	if err := cs.Delivery.Parse(params); err != nil {
		return CastSpec{}, fmt.Errorf("daemon: cast %s: %w", cs.Name, err)
	}
	if err := cs.normalize(); err != nil {
		return CastSpec{}, err
	}
	return cs, nil
}

// normalize validates the spec and applies the defaults a reload diffs
// against (mode, weight, codec family and ratio) — the one gate
// ParseCastSpec, AddCast and Reload all pass, so a literal CastSpec is
// held to what a parsed line is. The other delivery keys keep their
// zero-means-default form.
func (cs *CastSpec) normalize() error {
	switch cs.Mode {
	case "":
		cs.Mode = ModeCarousel
	case ModeCarousel, ModeStream:
	default:
		return fmt.Errorf("daemon: cast %s: unknown mode %q (want %s or %s)", cs.Name, cs.Mode, ModeCarousel, ModeStream)
	}
	if cs.Weight == 0 {
		cs.Weight = 1
	}
	if err := cs.Validate(); err != nil {
		return fmt.Errorf("daemon: cast %s: %w", cs.Name, err)
	}
	resolved := cs.ResolvedCodec()
	cs.Codec.Family, cs.Codec.Ratio = resolved.Family, resolved.Ratio
	return nil
}

// Spec renders the canonical spec line: cast(name=...,addr=...,...),
// zero-valued optional fields omitted. ParseCastSpec(s.Spec())
// round-trips every spec-line field (Data and Source do not render — a
// respawned daemon cannot re-source in-process bytes from a string).
func (cs CastSpec) Spec() string {
	fields := []spec.Field{
		{Key: "name", Value: cs.Name},
		{Key: "addr", Value: cs.Addr},
	}
	add := func(key, value string) {
		fields = append(fields, spec.Field{Key: key, Value: value})
	}
	if cs.Mode != "" && cs.Mode != ModeCarousel {
		add("mode", cs.Mode)
	}
	if cs.File != "" {
		add("file", cs.File)
	}
	if cs.Weight != 0 && cs.Weight != 1 {
		add("weight", strconv.FormatFloat(cs.Weight, 'g', -1, 64))
	}
	fields = append(fields, cs.Fields()...)
	return spec.Format("cast", fields...)
}

// diffReload classifies a proposed spec change against the running one.
// Immutable keys describe the cast's identity and code geometry — what
// receivers already joined on — and rejecting them with an explicit
// diff keeps a fat-fingered reload from silently restarting a cast:
// change those by removing and re-adding the cast. Everything else
// (weight, ratio, scheduler, batch, rounds, nsent) applies at the next
// round boundary. Stream casts accept only weight: their codec and
// schedule are burned into chunks already on the air.
//
// The delivery is compared as it runs, defaults applied: writing out a
// value the running line left to its default (payload=1024, a codec seed
// equal to the cast's) is not a change.
func diffReload(old, next CastSpec) error {
	was, err := old.ObjectConfig(0)
	if err != nil {
		return err
	}
	now, err := next.ObjectConfig(0)
	if err != nil {
		return err
	}
	var immutable []string
	imm := func(key string, changed bool) {
		if changed {
			immutable = append(immutable, key)
		}
	}
	imm("name", old.Name != next.Name)
	imm("addr", old.Addr != next.Addr)
	imm("mode", old.Mode != next.Mode)
	imm("file", old.File != next.File)
	imm("payload", was.PayloadSize != now.PayloadSize)
	imm("object", old.BaseObjectID != next.BaseObjectID)
	imm("seed", old.Seed != next.Seed)
	imm("codec family", was.Family != now.Family)
	imm("codec k", old.Codec.K != next.Codec.K)
	imm("codec seed", was.Seed != now.Seed)
	if old.Mode == ModeStream {
		imm("codec ratio", was.Ratio != now.Ratio)
		imm("sched", old.SchedulerName() != next.SchedulerName())
		imm("batch", old.BatchSize != next.BatchSize)
		imm("window", old.Window != next.Window)
		imm("rounds", old.Rounds != next.Rounds)
		imm("nsent", old.NSent != next.NSent)
	} else {
		imm("window", old.Window != next.Window)
	}
	if immutable != nil {
		sort.Strings(immutable)
		return fmt.Errorf("daemon: cast %s: immutable keys changed: %s (remove and re-add the cast instead)",
			old.Name, strings.Join(immutable, ", "))
	}
	return nil
}
