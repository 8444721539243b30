// Command bench is the repository's one benchmark: it runs named
// workloads end to end through the public facade — source bytes →
// Caster / broadcast daemon → wire → Collector → checked bytes, and the
// paper's simulation grid — verifies every output on its own, and
// reports the end-to-end metrics BENCHMARK.json declares. A separate
// traced run (-trace) attributes the time to layers. See README.md.
//
//	go run ./bench [-workload w] [-trace] [-seed n] [-reps R] [-seconds S] [-out f]
//	go run ./bench compare A.json B.json
//	go run ./bench report trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

func allWorkloads() []workload {
	var ws []workload
	for _, c := range castWorkloads {
		ws = append(ws, c)
	}
	return append(ws, newUDPWorkload(), newSimWorkload())
}

func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "report":
			return reportMain(args[1:])
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		trace   = fs.Bool("trace", false, "traced run: per-layer metrics, spans and tracing overhead")
		seed    = fs.Int64("seed", 1, "seed of every generated input: source bytes, link loss, plan and fleet")
		reps    = fs.Int("reps", 0, "timed repetitions (0 = as many as fit in -seconds, at least 3)")
		seconds = fs.Float64("seconds", runSeconds, "time to measure for, per workload")
		out     = fs.String("out", "", "result file (default: bench/out/result-<workload>-seed<n>[-trace].json)")
		quick   = fs.Bool("quick", false, "1/64-size inputs: a smoke run, not a measurement")
	)
	if err := fs.Parse(boolValueArgs(args, "trace")); err != nil {
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, reps: *reps, trace: *trace, scale: 1, timeout: 90 * time.Second}
	if *quick {
		opt.scale = 64
	}
	var chosen []workload
	for _, w := range allWorkloads() {
		if *name == "all" || *name == w.name() {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	file := resultFile{Record: newRunRecord(opt)}
	for _, w := range chosen {
		res, err := runWorkload(w, opt, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		file.Workloads = append(file.Workloads, res)
		printWorkload(os.Stdout, res, opt.trace)
	}
	if *out == "" {
		*out = defaultOut(*name, opt)
	}
	path, err := writeOutputs(*out, file, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("result file:", path)
	if len(chosen) == 1 {
		// The machine-readable line a driver reads: last on stdout.
		fmt.Println(driverLine(file.Workloads[0], opt.trace))
	}
	return exitCode(file.Workloads)
}

// exitCode is non-zero when any operation of any workload failed
// verification: a wrong byte, a missing chunk, a timeout.
func exitCode(results []workloadResult) int {
	for _, r := range results {
		if !r.correct() {
			return 1
		}
	}
	return 0
}

// boolValueArgs lets a boolean flag also be given as "-name 0" or
// "-name 1", the form the benchmark driver uses.
func boolValueArgs(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// driverLine is the one-object summary of a single-workload run: every
// end-to-end metric of an untraced run, every per-layer metric of a
// traced one.
func driverLine(r workloadResult, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := r.EndToEnd
	if traced {
		src = r.PerLayer
	}
	metrics := make(map[string]value, len(src))
	for k, s := range src {
		metrics[k] = value{s.Value, s.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
	if err != nil {
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, r.Attempted, r.Attempted)
	}
	return string(b)
}

// printWorkload prints every metric of one workload by name, with its
// unit, median and quartiles.
func printWorkload(w io.Writer, r workloadResult, traced bool) {
	fmt.Fprintf(w, "\n== %s  (%d timed repetitions; %d operations attempted, %d failed)\n   %s\n",
		r.Name, r.Reps, r.Attempted, r.Failed, r.Why)
	for _, n := range r.Notes {
		fmt.Fprintln(w, "   !", n)
	}
	row := func(d metricDef, s summary) {
		fmt.Fprintf(w, "  %-44s %14.6g %-8s [median %.6g, q1 %.6g, q3 %.6g, n=%d]\n", d.Name, s.Value, s.Unit, s.Median, s.Q1, s.Q3, len(s.Values))
	}
	for _, d := range endToEnd {
		row(d, r.EndToEnd[d.Name])
	}
	fmt.Fprintf(w, "  (chunk latency over %d samples)\n", r.LatencySamples)
	if !traced {
		return
	}
	fmt.Fprintln(w, "  -- per layer (traced repetitions and replay)")
	for _, d := range perLayer {
		row(d, r.PerLayer[d.Name])
	}
	printBudget(w, r)
}

// defaultOut names the result file of a run that gave none: under
// bench/out (ignored by git) of the directory the benchmark is run
// from, because a benchmark run writes nothing outside its checkout.
func defaultOut(workload string, opt options) string {
	name := fmt.Sprintf("result-%s-seed%d", workload, opt.seed)
	if opt.trace {
		name += "-trace"
	}
	return filepath.Join("bench", "out", name+".json")
}

// writeOutputs stores the result file (and the span file of a traced
// run, next to it) and returns the result file's path.
func writeOutputs(out string, file resultFile, tr *tracer) (string, error) {
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return "", err
	}
	if tr != nil {
		spans := strings.TrimSuffix(out, filepath.Ext(out)) + ".spans.json"
		if err := tr.write(spans); err != nil {
			return "", err
		}
		file.Record.SpanFile = spans
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return "", err
	}
	return out, os.WriteFile(out, append(b, '\n'), 0o644)
}
