// Interleaving: why small-block Reed-Solomon must interleave its blocks
// when losses come in bursts (the paper's Tx_model_1 vs Tx_model_5).
//
// Sequential transmission concentrates a loss burst inside one FEC block
// and kills it; interleaving spreads the same burst thinly across all
// blocks, so every block stays decodable. LDGM codes, with their single
// large block, get the same protection from plain random scheduling.
package main

import (
	"fmt"
	"log"

	"fecperf"
)

func main() {
	const (
		k     = 5000
		ratio = 1.5
		// A bursty channel: ~10-packet loss bursts, ~9% global loss.
		p, q = 0.01, 0.10
	)

	rseCode, err := fecperf.NewRSE(k, ratio)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("channel: gilbert p=%g q=%g → %.1f%% loss in ~%.0f-packet bursts\n",
		p, q, 100*fecperf.GlobalLoss(p, q), 1/q)
	fmt.Printf("object: k=%d packets, ratio %.1f (RSE segmented into %d blocks)\n\n",
		k, ratio, rseCode.NumBlocks())

	type entry struct {
		label string
		codec string
		sched string
	}
	entries := []entry{
		{"RSE, sequential (tx1)", fmt.Sprintf("rse(k=%d,ratio=%g)", k, ratio), "tx1"},
		{"RSE, interleaved (tx5)", fmt.Sprintf("rse(k=%d,ratio=%g)", k, ratio), "tx5"},
		{"LDGM Triangle, random (tx4)", fmt.Sprintf("ldgm-triangle(k=%d,ratio=%g,seed=42)", k, ratio), "tx4"},
	}

	const trials = 50
	fmt.Printf("%-30s %12s %14s\n", "scheme", "decoded", "inefficiency")
	for _, e := range entries {
		agg, err := fecperf.Simulate(fecperf.WithSpec(fmt.Sprintf(
			"codec=%s,sched=%s,channel=gilbert(p=%g,q=%g),trials=%d,seed=5",
			e.codec, e.sched, p, q, trials)))
		if err != nil {
			log.Fatal(err)
		}
		ineff := "-"
		if !agg.Failed() {
			ineff = fmt.Sprintf("%.4f", agg.MeanIneff())
		} else if agg.Trials-agg.Failures > 0 {
			ineff = fmt.Sprintf("%.4f*", agg.MeanIneff()) // * = partial
		}
		fmt.Printf("%-30s %9d/%d %14s\n", e.label, agg.Trials-agg.Failures, agg.Trials, ineff)
	}
	fmt.Println("\nsequential RSE lets a single burst erase too much of one block;")
	fmt.Println("interleaving spreads each burst across all blocks (the paper's")
	fmt.Println("Figure 12: interleaving is unavoidable with RSE, whatever the loss).")
}
