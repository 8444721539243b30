// Package experiments defines one runnable experiment per figure and table
// of the reproduced paper. Each experiment knows its workload, parameters
// and output layout, and renders a textual report whose tables mirror the
// paper's appendix format (mean inefficiency ratio per (p, q) cell, "-"
// where any trial failed).
//
// Experiments accept an Options value so the same definitions serve three
// scales: quick CI runs (small k, few trials), the benchmark harness, and
// full paper-scale reproduction (k=20000, 100 trials) from the CLI tools.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"fecperf/internal/codes"
	"fecperf/internal/core"
)

// Options scales an experiment. The zero value is replaced by defaults
// suitable for interactive runs.
type Options struct {
	// K is the object size in source packets. The paper uses 20000;
	// the default is 1000, which preserves every qualitative result.
	K int
	// Trials per measurement point; the paper uses 100, default 20.
	Trials int
	// Seed drives all pseudo-randomness.
	Seed int64
	// Workers bounds sweep parallelism (0 = GOMAXPROCS).
	Workers int
	// Grid overrides the (p, q) axes for grid experiments (nil = the
	// paper's 14-value axis). Useful to cut run time quadratically.
	Grid []float64
}

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 1000
	}
	if o.Trials == 0 {
		o.Trials = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Table is a rendered result matrix: the paper's appendix layout.
type Table struct {
	Name      string
	RowHeader string // e.g. "p\\q"
	ColLabels []string
	RowLabels []string
	Cells     [][]string
}

// Format renders the table with aligned columns.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Name)
	width := len(t.RowHeader)
	for _, cells := range append([][]string{t.ColLabels, t.RowLabels}, t.Cells...) {
		for _, c := range cells {
			width = max(width, len(c))
		}
	}
	pad := func(s string) string { return fmt.Sprintf("%*s", width+2, s) }
	b.WriteString(pad(t.RowHeader))
	for _, c := range t.ColLabels {
		b.WriteString(pad(c))
	}
	b.WriteByte('\n')
	for i, row := range t.Cells {
		b.WriteString(pad(t.RowLabels[i]))
		for _, c := range row {
			b.WriteString(pad(c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Series is an (x, y) curve, e.g. Figure 14.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	X      []float64
	Y      []float64
	// Failed marks x positions where at least one trial failed.
	Failed []bool
}

// Format renders the series as two columns.
func (s Series) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n%s\t%s\n", s.Name, s.XLabel, s.YLabel)
	for i := range s.X {
		if s.Failed != nil && s.Failed[i] {
			fmt.Fprintf(&b, "%g\t-\n", s.X[i])
			continue
		}
		fmt.Fprintf(&b, "%g\t%.4f\n", s.X[i], s.Y[i])
	}
	return b.String()
}

// Report is the rendered outcome of one experiment.
type Report struct {
	ID, Title string
	Notes     []string
	Tables    []Table
	Series    []Series
}

// Format renders the full report.
func (r Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	for _, t := range r.Tables {
		b.WriteString(t.Format())
		b.WriteByte('\n')
	}
	for _, s := range r.Series {
		b.WriteString(s.Format())
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment pairs an identifier with a runner.
type Experiment struct {
	ID       string
	PaperRef string
	Title    string
	Run      func(Options) (*Report, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// ByID returns the experiment with the given identifier.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (try List())", id)
	}
	return e, nil
}

// List returns all experiments sorted by ID.
func List() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CodeNames are the identifiers accepted by MakeCode.
var CodeNames = codes.Names

// MakeCode builds a code by family name for a given object size and FEC
// expansion ratio. LDGM construction seeds derive from the sweep seed so
// repeated runs are reproducible. It delegates to the codes package,
// which the engine shares.
func MakeCode(name string, k int, ratio float64, seed int64) (core.Code, error) {
	return codes.Make(name, k, ratio, seed)
}

func percentLabels(vals []float64) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf("%g", v*100)
	}
	return out
}
