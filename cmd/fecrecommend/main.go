// Command fecrecommend applies the paper's Section 6: given a channel —
// either explicit Gilbert (p, q) parameters or a recorded loss trace — it
// ranks every (FEC code; transmission model; expansion ratio) tuple,
// prints the best ones, and sizes n_sent so the sender can stop early
// (Equation 3).
//
// Usage:
//
//	fecrecommend -p 0.0109 -q 0.7915 -k 1000 -trials 20
//	fecrecommend -trace losses.txt            # one 0/1 per line
//	fecrecommend -example                     # the Section 6.2.1 worked example
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"fecperf/internal/channel"
	"fecperf/internal/codes"
	"fecperf/internal/recommend"
)

func main() {
	var (
		p       = flag.Float64("p", -1, "Gilbert no-loss→loss probability")
		q       = flag.Float64("q", -1, "Gilbert loss→no-loss probability")
		trace   = flag.String("trace", "", "loss trace file: one 0 (received) / 1 (lost) per line")
		k       = flag.Int("k", 1000, "object size in source packets")
		trials  = flag.Int("trials", 20, "trials per candidate tuple")
		seed    = flag.Int64("seed", 1, "random seed")
		top     = flag.Int("top", 5, "number of ranked tuples to print")
		margin  = flag.Int("margin", 100, "safety margin added to the optimal n_sent")
		example = flag.Bool("example", false, "print the paper's Section 6.2.1 worked example")
	)
	flag.Parse()

	if *example {
		printExample()
		return
	}

	pp, qq := *p, *q
	if *trace != "" {
		var err error
		pp, qq, err = estimateFromFile(*trace)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("estimated from trace: p=%.4f q=%.4f (p_global=%.4f)\n\n",
			pp, qq, channel.GlobalLoss(pp, qq))
	}
	if pp < 0 || qq < 0 {
		fatal(fmt.Errorf("provide -p and -q, or -trace, or -example"))
	}

	cfg := recommend.Config{K: *k, Trials: *trials, Seed: *seed}
	ranked, err := recommend.Rank(pp, qq, cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("channel: gilbert p=%.4f q=%.4f → global loss %.4f\n",
		pp, qq, channel.GlobalLoss(pp, qq))
	fmt.Printf("ranking (k=%d, %d trials per tuple):\n", *k, *trials)
	shown := 0
	for _, r := range ranked {
		if shown >= *top {
			break
		}
		if r.Failed {
			fmt.Printf("  %-40s FAILED %d/%d trials\n", r.Tuple, r.Failures, r.Trials)
		} else {
			fmt.Printf("  %-40s inefficiency %.4f\n", r.Tuple, r.Ineff)
		}
		shown++
	}

	if best := ranked[0]; !best.Failed {
		nsent, nTotal, err := sizeNSent(best, cfg, channel.GlobalLoss(pp, qq), *margin)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nbest tuple: %s\n", best.Tuple)
		fmt.Printf("optimal n_sent: %d of %d available packets (margin %d)\n", nsent, nTotal, *margin)
	} else {
		fmt.Println("\nno tuple decodes reliably at this channel point;")
		fmt.Println("universal fallbacks:", recommend.Universal())
	}
}

// sizeNSent applies Equation 3 to the best tuple, capped at the n of the
// code the sender would build — which for segmented Reed-Solomon is not
// int(ratio·k): every block rounds its own parity count.
func sizeNSent(best recommend.Result, cfg recommend.Config, pGlobal float64, margin int) (nsent, n int, err error) {
	code, err := codes.Make(best.Tuple.Code, cfg.K, best.Tuple.Ratio, cfg.Seed)
	if err != nil {
		return 0, 0, err
	}
	n = code.Layout().N
	nsent, err = recommend.OptimalNSent(cfg.K, best.Ineff, pGlobal, margin, n)
	return nsent, n, err
}

func printExample() {
	ex := recommend.WorkedExample()
	fmt.Println("Section 6.2.1 worked example (50 MB object, Amherst→Los Angeles):")
	fmt.Printf("  k            = %d packets (1024-byte payloads)\n", ex.K)
	fmt.Printf("  p_global     = %.4f (p=0.0109, q=0.7915)\n", ex.PGlobal)
	fmt.Printf("  inefficiency = %.3f (tx2, ldgm-staircase, ratio 1.5)\n", ex.Ineff)
	fmt.Printf("  n_sent       = %d packets (Equation 3, before tolerance)\n", ex.NSentOpt)
	fmt.Printf("  vs. full n   = %d packets — %d packets saved\n",
		ex.NTotal, ex.NTotal-ex.NSentOpt)
}

func estimateFromFile(path string) (p, q float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var pattern []bool
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		switch line := sc.Text(); line {
		case "0":
			pattern = append(pattern, false)
		case "1":
			pattern = append(pattern, true)
		case "":
		default:
			return 0, 0, fmt.Errorf("trace line %q is neither 0 nor 1", line)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	return channel.EstimateGilbert(pattern)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fecrecommend:", err)
	os.Exit(1)
}
