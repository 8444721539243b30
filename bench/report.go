package main

import (
	"fmt"
	"os"
)

// reportMain implements "bench report trace.json": the generated
// "where the time goes" tables of a traced result file, in the form
// README.md carries.
func reportMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: bench report trace.json   (the result file of a -trace run)")
		return 2
	}
	f, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench report:", err)
		return 2
	}
	if !f.Record.Traced {
		fmt.Fprintln(os.Stderr, "bench report:", args[0], "is not the result of a -trace run")
		return 2
	}
	fmt.Printf("commit %s, %s, GOMAXPROCS %d on %d × %s, kernel %s, GSO %s, seed %d\n\n",
		f.Record.Commit, f.Record.GoVersion, f.Record.GOMAXPROCS, f.Record.NProc, f.Record.CPUModel, f.Record.Kernel, f.Record.GSO, f.Record.Seed)
	for _, side := range []struct {
		title, prefix, busy, coverage string
		layers                        []string
	}{
		{"Sender: share of its busy time, per layer", "budget.sender.", "budget.sender_busy_frac", "budget.sender_coverage",
			append(senderLayers[:len(senderLayers):len(senderLayers)], "residual")},
		{"Receiver: share of its busy time, per layer", "budget.receiver.", "budget.receiver_busy_frac", "budget.receiver_coverage",
			append(receiverLayers[:len(receiverLayers):len(receiverLayers)], "residual")},
	} {
		fmt.Println(side.title)
		fmt.Print("\n| workload | busy ÷ run |")
		for _, l := range side.layers {
			fmt.Printf(" %s |", l)
		}
		fmt.Print(" coverage |\n|---|---|")
		for range side.layers {
			fmt.Print("---|")
		}
		fmt.Println("---|")
		for _, w := range f.Workloads {
			get := func(name string) float64 { return w.PerLayer[name].Value }
			if get(side.coverage) == 0 {
				continue
			}
			fmt.Printf("| `%s` | %.0f%% |", w.Name, get(side.busy)*100)
			for _, l := range side.layers {
				fmt.Printf(" %.1f%% |", get(side.prefix+l+"_share")*100)
			}
			fmt.Printf(" %.2f |\n", get(side.coverage))
		}
		fmt.Println()
	}
	fmt.Println("Who waits for whom, and what tracing costs")
	fmt.Println("\n| workload | caster run s | blocked on link s | pacer wait s | collector run s | waiting for data s | trace overhead % |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, w := range f.Workloads {
		get := func(name string) float64 { return w.PerLayer[name].Value }
		fmt.Printf("| `%s` | %.3f | %.3f | %.3f | %.3f | %.3f | %.1f |\n", w.Name, get("transport.caster.run_s"), get("link.tx_blocked_s"),
			get("transport.caster.pacer_wait_s"), get("transport.collector.run_s"), get("link.rx_wait_s"), get("bench.trace_overhead_pct"))
	}
	return 0
}
