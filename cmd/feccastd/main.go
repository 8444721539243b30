// Feccastd is the long-running broadcast daemon: one process carrying
// many concurrent casts — file carousels and streaming chunk trains —
// over a single shared hierarchical pacer, so the global send rate is
// one number split across casts by weight instead of N independent
// token buckets fighting for the wire.
//
// Casts are declared as one-line specs, in a file (-casts, one per
// line) or inline (-cast, repeatable):
//
//	feccastd -control 127.0.0.1:9890 -rate 50000 -casts casts.conf
//	feccastd -rate 8000 \
//	    -cast "name=docs,addr=239.1.2.3:9900,file=docs.tar,weight=2" \
//	    -cast "name=iso,addr=239.1.2.3:9901,file=big.iso,mode=stream"
//
// The control listener serves the metrics endpoint (/metrics,
// /metrics.json, /debug/vars) and the cast control plane on the same
// port:
//
//	GET    /casts               list casts and their live counters
//	POST   /casts               add a cast ({"spec": ...})
//	GET    /casts/{name}        one cast's status
//	DELETE /casts/{name}        remove a cast immediately
//	POST   /casts/{name}/reload respec a cast (mutable keys only;
//	                            applied at the next round boundary)
//	POST   /drain               graceful shutdown, whole rounds only
//
// Bodies are application/json. Every route on the -control listener —
// the casts, /metrics, /metrics.json, /debug/vars and /debug/pprof/ —
// refuses a request whose Host is not the -control address or whose
// Origin is not its own, so a web page open in a browser on the host can
// neither drive the daemon nor read its metrics and profiles:
//
//	curl -s -X POST localhost:9890/casts -H 'Content-Type: application/json' \
//	    -d '{"spec": "name=beta,addr=239.1.2.5:9900,file=b.bin"}'
//
// SIGHUP re-reads the -casts file and converges the running set on it:
// new lines are added, vanished lines removed, changed lines reloaded
// (immutable-key changes are rejected and logged; the old cast keeps
// running). SIGINT/SIGTERM drain gracefully — every cast finishes its
// carousel round — bounded by -drain-timeout, after which stragglers
// are cut off.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"fecperf"
	"fecperf/internal/transport"
)

func main() {
	// First SIGINT/SIGTERM starts a graceful drain; a second one cuts
	// the process off immediately: stop() runs the moment ctx fires —
	// not after run() returns — reinstating default signal handling so
	// the repeat signal kills even a stuck drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	if err := run(ctx, hup, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "feccastd:", err)
		os.Exit(1)
	}
}

// specList collects repeatable -cast flags.
type specList []string

func (s *specList) String() string     { return strings.Join(*s, "; ") }
func (s *specList) Set(v string) error { *s = append(*s, v); return nil }

// run is the whole daemon, testable in-process: ctx cancellation is
// the graceful-shutdown signal, hup delivers configuration reloads.
func run(ctx context.Context, hup <-chan os.Signal, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("feccastd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var casts specList
	control := fs.String("control", "127.0.0.1:9890", "control + metrics listen address (HTTP)")
	rate := fs.Float64("rate", 0, "global send budget in packets per second, shared by every cast (0 = unpaced)")
	burst := fs.Int("burst", 0, "global token-bucket depth in packets (0 = default)")
	batch := fs.Int("batch", 0, "datagrams per kernel send batch, up to 64 (0 or 1 = one syscall per packet)")
	castsFile := fs.String("casts", "", "cast spec file: one cast per line, #-comments; SIGHUP re-reads it")
	fs.Var(&casts, "cast", "one-line cast spec (repeatable), e.g. \"name=docs,addr=239.1.2.3:9900,file=docs.tar,weight=2\"")
	drainTimeout := fs.Duration("drain-timeout", fecperf.DefaultDrainTimeout, "graceful-drain bound before in-flight casts are hard-cancelled")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof/ on the control endpoint")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := transport.ValidatePacing(*rate, *burst); err != nil {
		return err
	}

	// The whole starting set parses before anything binds or sends: a
	// typo in line 7 fails startup instead of leaving a half-daemon.
	initial, err := loadCastSpecs(*castsFile, casts)
	if err != nil {
		return err
	}

	reg := fecperf.NewMetricsRegistry()
	d := fecperf.NewBroadcastDaemon(fecperf.BroadcastDaemonConfig{
		Rate:         *rate,
		Burst:        *burst,
		BatchSize:    *batch,
		DrainTimeout: *drainTimeout,
		Metrics:      reg,
	})
	defer d.Close()

	srv, err := fecperf.ServeMetrics(*control, reg, fecperf.MetricsServeConfig{
		Pprof: *pprofOn,
		Extra: map[string]http.Handler{
			"/casts":  d.ControlHandler(),
			"/casts/": d.ControlHandler(),
			"/drain":  d.ControlHandler(),
		},
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	for _, cs := range initial {
		if err := d.AddCast(cs); err != nil {
			return fmt.Errorf("cast %q: %w", cs.Name, err)
		}
	}
	fmt.Fprintf(stderr, "feccastd: %d cast(s) @ %.0f pkt/s shared, control on http://%s/casts\n",
		len(initial), *rate, srv.Addr())

	for {
		select {
		case <-hup:
			if *castsFile == "" {
				fmt.Fprintln(stderr, "feccastd: SIGHUP ignored (no -casts file)")
				continue
			}
			if err := syncCasts(d, *castsFile, stderr); err != nil {
				fmt.Fprintf(stderr, "feccastd: reload failed: %v\n", err)
			}
		case <-ctx.Done():
			fmt.Fprintf(stderr, "feccastd: draining (%v bound)\n", *drainTimeout)
			if err := d.Drain(context.Background()); err != nil {
				return err
			}
			fmt.Fprintln(stderr, "feccastd: drained")
			return nil
		case <-d.Drained():
			// Drain arrived through the control plane; the daemon has
			// already converged.
			fmt.Fprintln(stderr, "feccastd: drained (control plane)")
			return nil
		}
	}
}

// loadCastSpecs parses the startup set: the -casts file (one spec per
// line, blank lines and #-comments skipped) plus every -cast flag, in
// that order. Duplicate names are rejected here so startup fails
// loudly rather than on the Nth AddCast.
func loadCastSpecs(path string, inline []string) ([]fecperf.CastSpec, error) {
	var lines []string
	if path != "" {
		fileLines, err := readSpecLines(path)
		if err != nil {
			return nil, err
		}
		lines = fileLines
	}
	lines = append(lines, inline...)
	specs := make([]fecperf.CastSpec, 0, len(lines))
	seen := make(map[string]bool, len(lines))
	for _, line := range lines {
		cs, err := fecperf.ParseCastSpec(line)
		if err != nil {
			return nil, err
		}
		if seen[cs.Name] {
			return nil, fmt.Errorf("cast %q declared twice", cs.Name)
		}
		seen[cs.Name] = true
		specs = append(specs, cs)
	}
	return specs, nil
}

// readSpecLines reads one cast spec per line from path, skipping blank
// lines and #-comments.
func readSpecLines(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lines []string
	for i, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if _, err := fecperf.ParseCastSpec(line); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		lines = append(lines, line)
	}
	return lines, nil
}

// syncCasts converges the daemon's running set on the spec file:
// vanished casts are removed, new ones added, survivors reloaded
// (no-op reloads included — the daemon only queues real changes).
// Per-cast failures — an immutable-key edit, a missing file — are
// logged and skipped so one bad line cannot take down its neighbours;
// the first such error is returned after the whole pass.
func syncCasts(d *fecperf.BroadcastDaemon, path string, stderr io.Writer) error {
	lines, err := readSpecLines(path)
	if err != nil {
		return err
	}
	next := make(map[string]fecperf.CastSpec, len(lines))
	var order []string
	for _, line := range lines {
		cs, err := fecperf.ParseCastSpec(line)
		if err != nil {
			return err
		}
		if _, dup := next[cs.Name]; dup {
			return fmt.Errorf("cast %q declared twice in %s", cs.Name, path)
		}
		next[cs.Name] = cs
		order = append(order, cs.Name)
	}
	running := make(map[string]bool)
	for _, st := range d.Casts() {
		running[st.Name] = true
	}

	var firstErr error
	keep := func(err error, what, name string) {
		if err != nil {
			fmt.Fprintf(stderr, "feccastd: %s %q: %v\n", what, name, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s %q: %w", what, name, err)
			}
		}
	}
	var removed []string
	for name := range running {
		if _, stays := next[name]; !stays {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		keep(d.RemoveCast(name), "remove", name)
	}
	added, reloaded := 0, 0
	for _, name := range order {
		cs := next[name]
		if running[name] {
			keep(d.Reload(name, cs), "reload", name)
			reloaded++
		} else {
			keep(d.AddCast(cs), "add", name)
			added++
		}
	}
	fmt.Fprintf(stderr, "feccastd: reloaded %s: +%d casts, -%d, %d respec(s)\n",
		path, added, len(removed), reloaded)
	return firstErr
}
