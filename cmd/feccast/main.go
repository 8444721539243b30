// Feccast broadcasts files over UDP with the paper's FEC codes and
// transmission models, and receives them back — the deployable face of
// the fecperf library.
//
// Whole objects held in memory ride the carousel (send/recv); files of
// any size — including larger than RAM — stream as chunked object
// trains (cast/collect). send, cast and collect take every delivery and
// run setting from one -spec line in the library's configuration
// grammar, so the exact scenario a simulation or an engine plan
// describes runs on the air unchanged; send applies the line over its
// defaults (sendDefaults, printed by -h):
//
//	feccast send -addr 239.1.2.3:9900 -file big.iso -spec "codec=ldgm-triangle(ratio=2.5),rate=8000,metrics=:9090"
//	feccast recv -addr 239.1.2.3:9900 -out ./downloads -count 1
//	feccast cast -addr 239.1.2.3:9900 -file huge.img -spec "codec=rse(k=256,ratio=1.5),rate=8000,object=7"
//	feccast collect -addr :9900 -out huge.img -spec "object=7"
//
// The sender runs a carousel: every round it re-schedules the object's
// packets with the chosen transmission model and pushes them at the
// configured rate, so receivers may join at any time and still complete
// (the paper's FLUTE/ALC late-join property). The receiver daemon
// reassembles any number of interleaved objects and writes each to disk
// as it decodes. The caster instead streams a train of chunks with
// bounded memory, sealed by a trailing manifest the collector verifies
// end to end.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"fecperf"
	"fecperf/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "feccast:", err)
		os.Exit(1)
	}
}

// signalContext returns the context every subcommand runs under:
// cancelled by SIGINT and SIGTERM alike, so an orchestrator's shutdown
// signal stops a carousel as cleanly as an interactive Ctrl-C.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// setupObs starts the observability side of a subcommand: a metrics
// endpoint on metricsAddr (empty = none) and a JSONL lifecycle tracer
// to traceFile (empty = none, "-" = stderr). The returned registry and
// tracer are nil when not requested — every config path is nil-safe —
// and done flushes and shuts both down.
func setupObs(metricsAddr, traceFile string, pprofOn bool) (reg *fecperf.MetricsRegistry, tr *fecperf.Tracer, done func(), err error) {
	var closers []func()
	done = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	if metricsAddr != "" {
		reg = fecperf.NewMetricsRegistry()
		srv, err := fecperf.ServeMetrics(metricsAddr, reg, fecperf.MetricsServeConfig{Pprof: pprofOn})
		if err != nil {
			return nil, nil, func() {}, err
		}
		closers = append(closers, func() { srv.Close() })
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", srv.Addr())
	}
	if traceFile != "" {
		w := io.Writer(os.Stderr)
		if traceFile != "-" {
			f, err := os.Create(traceFile)
			if err != nil {
				done()
				return nil, nil, func() {}, err
			}
			closers = append(closers, func() { f.Close() })
			w = f
		}
		tr = fecperf.NewTracer(w, fecperf.TracerConfig{})
		tr.Register(reg)
		closers = append(closers, func() { tr.Close() })
	}
	return reg, tr, done, nil
}

// onListen, when tests set it, receives the address recv or collect
// bound (-addr host:0 binds an ephemeral port).
var onListen func(addr string)

// listen binds a receiving endpoint and reports where to onListen.
func listen(addr string) (fecperf.TransportConn, error) {
	conn, err := fecperf.Listen(addr)
	if err == nil && onListen != nil {
		onListen(conn.LocalAddr())
	}
	return conn, err
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: feccast <send|recv|cast|collect> [flags]\nRun 'feccast <subcommand> -h' for flags")
	}
	switch args[0] {
	case "send":
		return runSend(args[1:])
	case "recv":
		return runRecv(args[1:])
	case "cast":
		return runCast(args[1:])
	case "collect":
		return runCollect(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want send, recv, cast or collect)", args[0])
	}
}

// sendDefaults is send's configuration before its -spec line, which
// overrides it key by key: an LDGM-Staircase carousel in random order,
// paced for a LAN. A rounds= key bounds the carousel (default: until
// interrupted).
const sendDefaults = "codec=ldgm-staircase(ratio=2.5),sched=tx4,rate=5000,seed=1,object=1"

// sendOptions is send's whole configuration: sendDefaults overlaid by
// the -spec line. The object and its carousel are built from it.
func sendOptions(specLine string) []fecperf.Option {
	return []fecperf.Option{fecperf.WithSpec(sendDefaults), fecperf.WithSpec(specLine)}
}

// carouselConfig is the carousel a send configuration runs.
func carouselConfig(cfg fecperf.Config) fecperf.BroadcasterConfig {
	return fecperf.BroadcasterConfig{
		Rate:      cfg.Rate,
		Burst:     cfg.Burst,
		BatchSize: cfg.BatchSize,
		Rounds:    cfg.Rounds,
		Scheduler: cfg.Scheduler,
		Seed:      cfg.Seed,
	}
}

func runSend(args []string) error {
	fs := flag.NewFlagSet("feccast send", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9900", "destination host:port (multicast groups work)")
	file := fs.String("file", "", "file to broadcast (required)")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof/ on the metrics endpoint (spec key metrics=addr)")
	traceFile := fs.String("trace", "", `write JSONL lifecycle trace events to this file ("-" = stderr)`)
	specLine := fs.String("spec", "", fmt.Sprintf(`one-line configuration spec over the defaults %q, e.g. "codec=rse(ratio=1.5),rounds=4,object=3"`, sendDefaults))
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("send: -file is required")
	}
	opts := sendOptions(*specLine)
	cfg, err := fecperf.NewConfig(opts...)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	obj, err := fecperf.NewObject(data, opts...)
	if err != nil {
		return err
	}
	conn, err := fecperf.Dial(*addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	reg, tracer, obsDone, err := setupObs(cfg.MetricsAddr, *traceFile, *pprofOn)
	if err != nil {
		return err
	}
	defer obsDone()

	// OnRound reads the sender's own stats; the closure captures the
	// variable before assignment, which is safe because Run (the only
	// caller of OnRound) starts afterwards.
	var s *fecperf.Broadcaster
	bc := carouselConfig(cfg)
	bc.Metrics, bc.Tracer = reg, tracer
	bc.OnRound = func(round int) {
		st := s.Stats()
		fmt.Fprintf(os.Stderr, "round %d done: %d packets / %d bytes on the wire\n",
			round+1, st.PacketsSent, st.BytesSent)
	}
	s = fecperf.NewBroadcaster(conn, bc)
	if err := s.Add(obj); err != nil {
		return err
	}
	// The carousel sends views of the object's own frame slab every
	// round, so the object stays open until the carousel stops.
	defer s.Close()

	fmt.Fprintf(os.Stderr, "broadcasting %s (%d bytes) as object %d to %s: k=%d n=%d codec=%s @ %.0f pkt/s\n",
		*file, len(data), cfg.BaseObjectID, *addr, obj.K(), obj.N(), cfg.Codec.Name(), cfg.Rate)

	ctx, stopSignals := signalContext()
	defer stopSignals()
	err = s.Run(ctx)
	st := s.Stats()
	fmt.Fprintf(os.Stderr, "sent %d packets / %d bytes in %d rounds\n", st.PacketsSent, st.BytesSent, st.Rounds)
	if err == context.Canceled {
		return nil // interrupted: clean carousel shutdown
	}
	return err
}

func runRecv(args []string) error {
	fs := flag.NewFlagSet("feccast recv", flag.ContinueOnError)
	addr := fs.String("addr", ":9900", "listen host:port (multicast groups are joined)")
	out := fs.String("out", ".", "directory for decoded objects")
	count := fs.Int("count", 1, "exit after decoding this many objects (0 = run forever)")
	timeout := fs.Duration("timeout", 0, "give up after this long (0 = no limit)")
	mtu := fs.Int("mtu", 2048, "read buffer size (header + max payload)")
	batch := fs.Int("batch", 0, "datagrams per kernel read batch, up to 64 (0 = default 16, 1 = one syscall per packet)")
	statsEvery := fs.Duration("stats", 5*time.Second, "stats reporting interval (0 = silent)")
	metricsAddr := fs.String("metrics", "", `serve Prometheus/expvar metrics on this address (e.g. ":9090")`)
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof/ on the metrics endpoint")
	traceFile := fs.String("trace", "", `write JSONL lifecycle trace events to this file ("-" = stderr)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	conn, err := listen(*addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	reg, tracer, obsDone, err := setupObs(*metricsAddr, *traceFile, *pprofOn)
	if err != nil {
		return err
	}
	defer obsDone()

	ctx, stopSignals := signalContext()
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, reached := context.WithCancel(ctx)
	defer reached()

	var decoded, saveFailed atomic.Int64
	d := fecperf.NewReceiverDaemon(conn, fecperf.ReceiverDaemonConfig{
		MTU:       *mtu,
		ReadBatch: *batch,
		Metrics:   reg,
		Tracer:    tracer,
		OnComplete: func(id uint32, data []byte) {
			name := filepath.Join(*out, fmt.Sprintf("object-%d.bin", id))
			if err := os.WriteFile(name, data, 0o644); err != nil {
				saveFailed.Add(1)
				fmt.Fprintf(os.Stderr, "object %d decoded but not saved: %v\n", id, err)
			} else {
				fmt.Fprintf(os.Stderr, "object %d decoded: %d bytes → %s\n", id, len(data), name)
			}
			if n := decoded.Add(1); *count > 0 && n >= int64(*count) {
				reached()
			}
		},
	})
	fmt.Fprintf(os.Stderr, "listening on %s\n", conn.LocalAddr())

	if *statsEvery > 0 {
		go reportStats(ctx, *statsEvery, d.Stats)
	}

	err = d.Run(ctx)
	if n := saveFailed.Load(); n > 0 {
		// Decoding succeeded but the bytes never reached disk — that is
		// a failed transfer, whatever the daemon thinks.
		return fmt.Errorf("%d decoded object(s) could not be saved to %s", n, *out)
	}
	if *count > 0 && decoded.Load() >= int64(*count) {
		return nil // target reached: context cancellation is success
	}
	if err == context.Canceled || err == context.DeadlineExceeded {
		if decoded.Load() == 0 {
			return fmt.Errorf("stopped before any object decoded (stats %+v)", d.Stats())
		}
		return nil
	}
	return err
}

func reportStats(ctx context.Context, every time.Duration, stats func() transport.Stats) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			st := stats()
			fmt.Fprintf(os.Stderr,
				"stats: seen=%d ingested=%d bad=%d late=%d inconsistent=%d truncated=%d decoded=%d evicted=%d\n",
				st.PacketsSeen, st.PacketsIngested, st.PacketsBad, st.PacketsLate,
				st.PacketsInconsistent, st.PacketsTruncated, st.ObjectsDecoded, st.ObjectsEvicted)
		}
	}
}

func runCast(args []string) error {
	fs := flag.NewFlagSet("feccast cast", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9900", "destination host:port (multicast groups work)")
	file := fs.String("file", "", `file to stream ("-" = stdin; required)`)
	specLine := fs.String("spec", "", `one-line configuration spec, e.g. "codec=rse(k=256,ratio=1.5),sched=tx4,rate=8000,object=7,window=4,rounds=2,batch=32"`)
	progress := fs.Bool("progress", false, "report per-window progress on stderr")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof/ on the metrics endpoint (spec key metrics=addr)")
	traceFile := fs.String("trace", "", `write JSONL lifecycle trace events to this file ("-" = stderr)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("cast: -file is required")
	}
	cfg, err := fecperf.ParseSpec(*specLine)
	if err != nil {
		return err
	}
	var src io.Reader
	if *file == "-" {
		src = os.Stdin
	} else {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	conn, err := fecperf.Dial(*addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	reg, tracer, obsDone, err := setupObs(cfg.MetricsAddr, *traceFile, *pprofOn)
	if err != nil {
		return err
	}
	defer obsDone()

	opts := []fecperf.Option{fecperf.WithSpec(*specLine), fecperf.WithMetrics(reg), fecperf.WithTracer(tracer)}
	if *progress {
		opts = append(opts, fecperf.WithCastProgress(func(p fecperf.CastProgress) {
			fmt.Fprintf(os.Stderr, "cast: %d chunks / %d bytes read\n", p.ChunksCast, p.BytesRead)
		}))
	}
	caster, err := fecperf.NewCaster(conn, src, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "casting %s to %s (spec %q)\n", *file, *addr, *specLine)
	ctx, stopSignals := signalContext()
	defer stopSignals()
	err = caster.Run(ctx)
	st := caster.Stats()
	fmt.Fprintf(os.Stderr, "cast %d chunks (%d bytes) in %d packets / %d bytes on the wire\n",
		st.ChunksCast, st.BytesRead, st.PacketsSent, st.BytesSent)
	return err
}

func runCollect(args []string) error {
	fs := flag.NewFlagSet("feccast collect", flag.ContinueOnError)
	addr := fs.String("addr", ":9900", "listen host:port (multicast groups are joined)")
	out := fs.String("out", "", `output file ("-" = stdout; required)`)
	timeout := fs.Duration("timeout", 0, "give up after this long (0 = no limit)")
	specLine := fs.String("spec", "", `one-line configuration spec, e.g. "object=7,payload=1024,pending=64,batch=16"`)
	progress := fs.Bool("progress", false, "report per-chunk progress on stderr")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof/ on the metrics endpoint (spec key metrics=addr)")
	traceFile := fs.String("trace", "", `write JSONL lifecycle trace events to this file ("-" = stderr)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("collect: -out is required")
	}
	cfg, err := fecperf.ParseSpec(*specLine)
	if err != nil {
		return err
	}
	var dst io.Writer
	if *out == "-" {
		dst = os.Stdout
	} else {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	conn, err := listen(*addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	reg, tracer, obsDone, err := setupObs(cfg.MetricsAddr, *traceFile, *pprofOn)
	if err != nil {
		return err
	}
	defer obsDone()

	opts := []fecperf.Option{fecperf.WithSpec(*specLine), fecperf.WithMetrics(reg), fecperf.WithTracer(tracer)}
	if *progress {
		opts = append(opts, fecperf.WithCollectProgress(func(p fecperf.CollectProgress) {
			total := "?"
			if p.ChunksTotal >= 0 {
				total = fmt.Sprint(p.ChunksTotal)
			}
			fmt.Fprintf(os.Stderr, "collect: %d/%s chunks / %d bytes\n", p.ChunksWritten, total, p.BytesWritten)
		}))
	}
	col, err := fecperf.NewCollector(conn, dst, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "collecting on %s (spec %q)\n", conn.LocalAddr(), *specLine)

	ctx, stopSignals := signalContext()
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	err = col.Run(ctx)
	p := col.Progress()
	fmt.Fprintf(os.Stderr, "collected %d chunks / %d bytes (stats %+v)\n",
		p.ChunksWritten, p.BytesWritten, col.CollectStats())
	if err != nil {
		return fmt.Errorf("collect: %w", err)
	}
	return nil
}
