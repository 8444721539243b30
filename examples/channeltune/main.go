// Channeltune: the paper's Section 6.2.1 workflow end to end.
//
//  1. Record a packet loss trace on the target channel (here synthesised
//     from a hidden Gilbert process, standing in for a real measurement).
//  2. Fit the two-state Gilbert model to the trace (maximum likelihood).
//  3. Rank every (FEC code; transmission model; expansion ratio) tuple at
//     the fitted channel point and pick the best.
//  4. Size n_sent with Equation 3 so transmission stops shortly after a
//     receiver can decode — then validate the choice by simulation.
package main

import (
	"fmt"
	"log"

	"fecperf"
	"fecperf/internal/recommend"
)

func main() {
	// --- 1. the "measured" channel: Amherst→Los Angeles from the paper ---
	const hiddenP, hiddenQ = 0.0109, 0.7915
	probe := fecperf.ChannelSpec{Kind: "gilbert", P: hiddenP, Q: hiddenQ}.New(2024)
	trace := make([]bool, 500_000)
	for i := range trace {
		trace[i] = probe.Lost()
	}

	// --- 2. fit the Gilbert model ---
	p, q, err := fecperf.EstimateGilbert(trace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted channel: p=%.4f q=%.4f (true: p=%.4f q=%.4f)\n",
		p, q, hiddenP, hiddenQ)
	pg := fecperf.GlobalLoss(p, q)
	fmt.Printf("global loss rate: %.4f\n\n", pg)

	// --- 3. rank candidate tuples at the fitted point ---
	const (
		k      = 2000
		trials = 20
	)
	cfg := recommend.Config{K: k, Trials: trials, Seed: 7}
	ranked, err := recommend.Rank(p, q, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top tuples at this channel:")
	for i := 0; i < 5 && i < len(ranked); i++ {
		r := ranked[i]
		fmt.Printf("  %d. %-40s inefficiency %.4f\n", i+1, r.Tuple, r.Ineff)
	}
	best := ranked[0]
	if best.Failed {
		log.Fatal("no tuple decodes reliably on this channel")
	}

	// --- 4. size n_sent (Equation 3) and validate by simulation ---
	nTotal := int(best.Tuple.Ratio * float64(k))
	const margin = 50
	nsent, err := fecperf.OptimalNSent(k, best.Ineff, pg, margin, nTotal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbest tuple: %s\n", best.Tuple)
	fmt.Printf("n_sent: %d of %d packets (%.1f%% of the full transmission saved)\n",
		nsent, nTotal, 100*float64(nTotal-nsent)/float64(nTotal))

	// The winning tuple becomes one serializable spec line — the same
	// line cmd/feccast would broadcast with.
	spec := fmt.Sprintf("codec=%s(k=%d,ratio=%g,seed=7),sched=%s,channel=gilbert(p=%g,q=%g),trials=50,seed=99,nsent=%d",
		best.Tuple.Code, k, best.Tuple.Ratio, best.Tuple.TxModel, p, q, nsent)
	fmt.Printf("validation spec: %s\n", spec)
	agg, err := fecperf.Simulate(fecperf.WithSpec(spec))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("validation with truncated transmission: %d/%d receptions decoded",
		agg.Trials-agg.Failures, agg.Trials)
	if !agg.Failed() {
		fmt.Printf(" (mean inefficiency %.4f)\n", agg.MeanIneff())
	} else {
		fmt.Printf(" — increase the margin for more reliability\n")
	}
}
