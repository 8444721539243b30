package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

func readResult(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// verdict of one (workload, metric) pair of a comparison.
const (
	verdictSame       = "ok"
	verdictBetter     = "better"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's direction and bound to a baseline and a
// candidate sample. A candidate whose reported value is worse by more
// than the bound is a regression. Where either side's own spread exceeds the
// bound the pair cannot carry a verdict either way and is unresolved —
// unless every candidate value is better than every baseline value.
// A difference inside the bound, either way, is no verdict at all ("ok").
func judge(d metricDef, a, b summary) string {
	worse := func(x, y float64) bool { // x worse than y
		if d.Better == "higher" {
			return x < y
		}
		return x > y
	}
	if a.spread() > d.Bound || b.spread() > d.Bound {
		allBetter := len(a.Values) > 0 && len(b.Values) > 0
		for _, x := range b.Values {
			for _, y := range a.Values {
				allBetter = allBetter && worse(y, x)
			}
		}
		if !allBetter {
			return verdictUnresolved
		}
	}
	switch limit := math.Abs(a.Value * d.Bound); {
	case worse(b.Value, a.Value) && math.Abs(b.Value-a.Value) > limit:
		return verdictRegression
	case worse(a.Value, b.Value) && math.Abs(b.Value-a.Value) > limit:
		return verdictBetter
	}
	return verdictSame
}

// compareMain implements "bench compare A.json B.json": one row per
// (workload, end-to-end metric) with both medians and quartiles, the
// exact-repeat metrics checked for identity when the seeds agree, and a
// non-zero exit on a regression or a lower delivered_ratio.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json   (A is the baseline)")
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := readResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	code, lines := compareResults(a, b)
	for _, l := range lines {
		fmt.Println(l)
	}
	return code
}

func compareResults(a, b resultFile) (code int, lines []string) {
	say := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	say("baseline  %s  commit %s  %s  GOMAXPROCS %d  seed %d", a.Record.Started, a.Record.Commit, a.Record.GoVersion, a.Record.GOMAXPROCS, a.Record.Seed)
	say("candidate %s  commit %s  %s  GOMAXPROCS %d  seed %d", b.Record.Started, b.Record.Commit, b.Record.GoVersion, b.Record.GOMAXPROCS, b.Record.Seed)
	if a.Record.GOMAXPROCS != b.Record.GOMAXPROCS || a.Record.CPUModel != b.Record.CPUModel || a.Record.Scale != b.Record.Scale {
		say("warning: the two runs differ in GOMAXPROCS, CPU model or input scale; timings are not comparable")
	}
	say("%-20s %-22s %12s %34s %12s %34s %7s %6s  %s", "workload", "metric", "baseline", "[q1, median, q3]", "candidate", "[q1, median, q3]", "change", "bound", "verdict")
	regressions, unresolved := 0, 0
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			say("%-20s missing from the candidate", wa.Name)
			regressions++
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v := judge(d, sa, sb)
			switch v {
			case verdictRegression:
				regressions++
			case verdictUnresolved:
				unresolved++
			}
			say("%-20s %-22s %12.6g %34s %12.6g %34s %+6.1f%% %5.1f%%  %s", wa.Name, d.Name,
				sa.Value, fmt.Sprintf("[%.5g, %.5g, %.5g]", sa.Q1, sa.Median, sa.Q3),
				sb.Value, fmt.Sprintf("[%.5g, %.5g, %.5g]", sb.Q1, sb.Median, sb.Q3),
				ratio(sb.Value-sa.Value, sa.Value)*100, d.Bound*100, v)
		}
		if wb.Failed > wa.Failed {
			say("%-20s failed operations rose from %d to %d", wa.Name, wa.Failed, wb.Failed)
			regressions++
		}
		if a.Record.Seed != b.Record.Seed {
			continue
		}
		for _, name := range exactRepeat {
			sa, oka := wa.EndToEnd[name]
			sb, okb := wb.EndToEnd[name]
			if !oka {
				sa, oka = wa.PerLayer[name]
				sb, okb = wb.PerLayer[name]
			}
			if oka && okb && sa.Value != sb.Value {
				say("%-20s %-22s differs for one seed: %v vs %v (must repeat exactly)", wa.Name, name, sa.Value, sb.Value)
				regressions++
			}
		}
	}
	say("%d regressions, %d unresolved pairs", regressions, unresolved)
	if regressions > 0 {
		return 1, lines
	}
	return 0, lines
}
