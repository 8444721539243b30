// Command fecsim runs a single (code × transmission model × ratio) sweep
// over a (p, q) grid of channel parameters and prints the mean
// inefficiency table, the way the paper's appendix reports them.
//
// Usage:
//
//	fecsim -code ldgm-staircase -tx tx2 -ratio 2.5 -k 20000 -trials 100
//
// A reduced grid keeps exploratory runs fast:
//
//	fecsim -code rse -tx tx5 -ratio 1.5 -k 1000 -trials 20 -grid 0,0.05,0.2,0.5
//
// Sweeps run on the parallel experiment engine: -workers bounds the
// pool, -channel selects the loss model family (gilbert, bernoulli,
// markov, noloss), and -resume FILE checkpoints completed grid cells to
// a JSON-lines file — interrupting the run (Ctrl-C) and starting it
// again with the same flags resumes without recomputing finished cells.
//
// -spec accepts the library's unified one-line configuration (the same
// grammar cmd/feccast and fecperf.Simulate take) and overlays the
// individual flags:
//
//	fecsim -spec "codec=ldgm-staircase(k=20000,ratio=2.5),sched=tx2,channel=gilbert,trials=100,seed=7"
//
// Codes are built from the run seed, so a codec seed that differs from
// it is an error, as are the live-delivery keys a sweep cannot apply
// (payload, batch, window, rounds, object, rate, burst, pending). The
// LDGM families' decoder key carries over, so
// codec=ldgm-staircase(decoder=gauss) — or -code with the same value —
// sweeps the peeling decoder with its Gaussian fallback.
//
// -fleet switches from the (p, q) sweep to fleet mode: one shared
// transmission order fanned out to N receivers whose loss channels are
// drawn from the -mix components, reported as completion-time and
// inefficiency percentile curves instead of a grid:
//
//	fecsim -code rse -tx tx2 -ratio 1.5 -k 256 \
//	    -fleet 100000 -mix "gilbert(p=0.05,q=0.5):2,bernoulli(p=0.03):1"
//
// Fleet runs share the -resume checkpoint machinery: Ctrl-C, then the
// same command again, restores finished fleet points from the JSONL
// file without recomputing them.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"fecperf"
	"fecperf/internal/channel"
	"fecperf/internal/engine"
	"fecperf/internal/spec"
)

func main() {
	// Ctrl-C or SIGTERM cancels cleanly: cells finished so far are
	// already in the checkpoint file, so the same command resumes the
	// sweep. Supervisors (systemd, container runtimes) send SIGTERM, so
	// it must checkpoint as gracefully as an interactive interrupt.
	ctx, stop := signalContext()
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fecsim:", err)
		os.Exit(1)
	}
}

// signalContext returns the process-lifetime context: cancelled by
// SIGINT and SIGTERM alike, so interactive interrupts and supervisor
// shutdowns take the same graceful checkpoint-and-exit path.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// sweepKeys are the -spec keys a sweep applies. The others (payload,
// batch, window, rounds, object, rate, burst, pending) configure a live
// delivery; fecsim refuses them rather than drop them.
var sweepKeys = []string{"codec", "sched", "channel", "trials", "seed", "nsent", "workers", "metrics"}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fecsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		codeName = fs.String("code", "ldgm-staircase", "FEC code: "+strings.Join(fecperf.CodecNames, ", ")+"; the ldgm families take decoder=gauss, e.g. ldgm-staircase(decoder=gauss)")
		txName   = fs.String("tx", "tx2", "transmission model: tx1..tx6, parameterized forms tx6(frac=0.3), rx1(src=12), repeat(x=3), carousel(inner=tx4,rounds=3)")
		ratio    = fs.Float64("ratio", 2.5, "FEC expansion ratio n/k")
		k        = fs.Int("k", 1000, "object size in source packets (paper: 20000)")
		trials   = fs.Int("trials", 20, "trials per grid cell (paper: 100)")
		seed     = fs.Int64("seed", 1, "random seed")
		nsent    = fs.Int("nsent", 0, "truncate transmissions after this many packets (0 = send all)")
		gridSpec = fs.String("grid", "", "comma-separated probabilities for both axes (default: paper's 14-value axis)")
		workers  = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		chName   = fs.String("channel", "gilbert", "channel family: "+strings.Join(channel.Kinds, ", "))
		resume   = fs.String("resume", "", "checkpoint file: completed cells are appended and restored on restart")
		progress = fs.Bool("progress", false, "report per-cell completion on stderr")
		metrics  = fs.String("metrics", "", `serve Prometheus/expvar engine metrics on this address while the sweep runs (e.g. ":9090"; also spec key metrics=addr)`)
		specLine = fs.String("spec", "", `one-line configuration spec overriding the flags above, e.g. "codec=ldgm-staircase(k=20000,ratio=2.5),sched=tx2,channel=gilbert,trials=100,seed=7"`)
		fleetN   = fs.Int("fleet", 0, "fleet mode: simulate this many receivers of one shared transmission instead of the (p,q) sweep (0 = off)")
		mixSpec  = fs.String("mix", "gilbert(p=0.05,q=0.5)", `fleet channel mix: comma-separated "channelspec:weight" components (weight defaults to 1), e.g. "gilbert(p=0.05,q=0.5):2,bernoulli(p=0.03):1"`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specLine != "" {
		// The spec overlays the individual flags: the same line that
		// configures a live cast (cmd/feccast) or a Go Simulate call
		// selects this sweep's code, model and scale. The channel key's
		// family picks the axis family — its (p, q), if any, are
		// superseded by the sweep grid.
		cfg, err := fecperf.ParseSpec(*specLine)
		if err != nil {
			return err
		}
		_, params, _ := spec.Split("cfg(" + strings.TrimSpace(*specLine) + ")") // ParseSpec has accepted the line
		if bad := params.Unknown(sweepKeys...); bad != nil {
			return fmt.Errorf("spec keys %v configure a live delivery, not a sweep (a sweep applies %v)", bad, sweepKeys)
		}
		if cfg.Codec.Family != "" {
			// The plan's Codes axis takes the family and its decoder
			// key; k and ratio are axes of their own.
			*codeName = fecperf.CodecSpec{Family: cfg.Codec.Family, Decoder: cfg.Codec.Decoder}.Name()
			if cfg.Codec.K != 0 {
				*k = cfg.Codec.K
			}
			if cfg.Codec.Ratio != 0 {
				*ratio = cfg.Codec.Ratio
			}
		}
		if cfg.Scheduler != nil {
			*txName = cfg.Scheduler.Name()
		}
		if cfg.Channel.Kind != "" {
			*chName = cfg.Channel.Kind
		}
		if cfg.Trials != 0 {
			*trials = cfg.Trials
		}
		if cfg.Seed != 0 {
			*seed = cfg.Seed
		}
		if cfg.Codec.Seed != 0 && cfg.Codec.Seed != *seed {
			return fmt.Errorf("codec seed %d differs from run seed %d; a sweep builds codes from the run seed, so set seed=%d",
				cfg.Codec.Seed, *seed, cfg.Codec.Seed)
		}
		if cfg.NSent != 0 {
			*nsent = cfg.NSent
		}
		if cfg.Workers != 0 {
			*workers = cfg.Workers
		}
		if cfg.MetricsAddr != "" && *metrics == "" {
			*metrics = cfg.MetricsAddr
		}
	}

	fleetMode := *fleetN > 0
	plan := engine.Plan{
		Codes:      []string{*codeName},
		Ks:         []int{*k},
		Ratios:     []float64{*ratio},
		Schedulers: []string{*txName},
		NSents:     []int{*nsent},
		Trials:     *trials,
		Seed:       *seed,
	}
	var grid []float64
	if fleetMode {
		mix, err := parseMix(*mixSpec)
		if err != nil {
			return err
		}
		// A fleet replaces the channel axis; its sample count is the
		// receiver population, so Trials is ignored.
		plan.Fleets = []engine.FleetSpec{{Receivers: *fleetN, Mix: mix}}
	} else {
		var err error
		if grid, err = parseGrid(*gridSpec); err != nil {
			return err
		}
	}

	opts := engine.Options{Workers: *workers, CheckpointPath: *resume}
	if *metrics != "" {
		reg := fecperf.NewMetricsRegistry()
		srv, err := fecperf.ServeMetrics(*metrics, reg, fecperf.MetricsServeConfig{})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "fecsim: metrics on http://%s/metrics\n", srv.Addr())
		opts.Metrics = reg
	}
	if *progress {
		opts.Progress = func(ev engine.Progress) {
			state := "done"
			if ev.FromCheckpoint {
				state = "resumed"
			}
			key := ev.Point.Channel.Key()
			if ev.Point.Fleet != nil {
				key = ev.Point.Fleet.Key()
			}
			fmt.Fprintf(stderr, "fecsim: %d/%d %s %s: %s\n",
				ev.Done, ev.Total, key, state, ev.Aggregate.String())
		}
	}

	var (
		res []engine.PointResult
		g   *engine.Grid
		err error
	)
	if fleetMode {
		res, err = engine.Run(ctx, plan, opts)
	} else {
		g, err = engine.SweepPlan(ctx, plan, *chName, grid, grid, opts)
	}
	if err != nil {
		if *resume != "" && ctx.Err() != nil {
			fmt.Fprintf(stderr, "fecsim: interrupted; rerun with -resume %s to continue\n", *resume)
		}
		return err
	}

	if fleetMode {
		fmt.Fprintf(stdout, "# fleet: %s, %s, FEC expansion ratio %.2f, k=%d, receivers=%d, seed=%d\n",
			*codeName, *txName, *ratio, *k, *fleetN, *seed)
		for _, r := range res {
			if r.Aggregate.Fleet == nil {
				return fmt.Errorf("fleet point %s returned no fleet summary", r.Point.Key())
			}
			printFleet(stdout, r.Aggregate.Fleet)
		}
		return nil
	}

	fmt.Fprintf(stdout, "# %s, %s, FEC expansion ratio %.2f, k=%d, trials=%d, channel=%s\n",
		*codeName, *txName, *ratio, *k, *trials, *chName)
	fmt.Fprintf(stdout, "# cell = mean inefficiency ratio; \"-\" = at least one trial failed\n")
	printGrid(stdout, g)
	return nil
}

// parseMix parses the -mix flag: comma-separated "channelspec:weight"
// components. Commas and colons inside a channel spec's parentheses do
// not split — "gilbert(p=0.05,q=0.5):2,noloss" is two components.
func parseMix(s string) ([]engine.MixComponent, error) {
	var mix []engine.MixComponent
	for _, field := range splitTopLevel(s, ',') {
		field = strings.TrimSpace(field)
		if field == "" {
			return nil, fmt.Errorf("empty fleet mix component in %q", s)
		}
		specPart, weightPart := field, ""
		if cut := splitTopLevel(field, ':'); len(cut) == 2 {
			specPart, weightPart = strings.TrimSpace(cut[0]), strings.TrimSpace(cut[1])
		} else if len(cut) > 2 {
			return nil, fmt.Errorf("fleet mix component %q has more than one weight", field)
		}
		ch, err := channel.Parse(specPart)
		if err != nil {
			return nil, err
		}
		mc := engine.MixComponent{Channel: ch}
		if weightPart != "" {
			w, err := strconv.ParseFloat(weightPart, 64)
			if err != nil {
				return nil, fmt.Errorf("bad fleet mix weight %q: %v", weightPart, err)
			}
			if !(w > 0) || math.IsInf(w, 1) {
				return nil, fmt.Errorf("fleet mix weight %g must be positive and finite", w)
			}
			mc.Weight = w
		}
		mix = append(mix, mc)
	}
	return mix, nil
}

// splitTopLevel splits s on sep occurrences outside parentheses.
func splitTopLevel(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// printFleet renders a fleet summary: one row for the whole population,
// one per mix component. Completion percentiles are in symbols sent;
// -1 means the fleet never reached that completion fraction.
func printFleet(w io.Writer, s *engine.FleetSummary) {
	fmt.Fprintf(w, "# %d/%d receivers completed, %d symbols sent, %d receiver-symbol events\n",
		s.Completed, s.Receivers, s.NSent, s.Events)
	fmt.Fprintf(w, "# completion percentiles in symbols sent; \"-\" = fleet never reached that fraction\n")
	fmt.Fprintf(w, "%-26s %10s %10s %8s %8s %8s %8s %10s %10s\n",
		"group", "receivers", "completed", "p50", "p90", "p99", "p999", "ineff-p99", "mean-ineff")
	row := func(name string, receivers, completed int, c, ineff engine.FleetPercentiles, mean float64) {
		cell := func(v float64) string {
			if v < 0 {
				return "-"
			}
			return strconv.FormatFloat(v, 'f', 0, 64)
		}
		ineffCell := "-"
		if ineff.P99 >= 0 {
			ineffCell = strconv.FormatFloat(ineff.P99, 'f', 3, 64)
		}
		meanCell := "-"
		if completed > 0 {
			meanCell = strconv.FormatFloat(mean, 'f', 3, 64)
		}
		fmt.Fprintf(w, "%-26s %10d %10d %8s %8s %8s %8s %10s %10s\n",
			name, receivers, completed, cell(c.P50), cell(c.P90), cell(c.P99), cell(c.P999),
			ineffCell, meanCell)
	}
	row("all", s.Receivers, s.Completed, s.Completion, s.Ineff, s.IneffStats.Mean())
	for _, g := range s.Groups {
		row(g.Channel, g.Receivers, g.Completed, g.Completion, g.Ineff, g.IneffStats.Mean())
	}
}

func parseGrid(spec string) ([]float64, error) {
	if spec == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(spec, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad grid value %q: %v", f, err)
		}
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("grid value %g outside [0,1]", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func printGrid(w io.Writer, g *engine.Grid) {
	fmt.Fprintf(w, "%8s", "p\\q")
	for _, q := range g.Q {
		fmt.Fprintf(w, "%8s", fmt.Sprintf("%g", q*100))
	}
	fmt.Fprintln(w)
	for i, p := range g.P {
		fmt.Fprintf(w, "%8s", fmt.Sprintf("%g", p*100))
		for j := range g.Q {
			fmt.Fprintf(w, "%8s", g.At(i, j).String())
		}
		fmt.Fprintln(w)
	}
}
