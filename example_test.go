package fecperf_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"fecperf"
)

// The streaming quickstart: cast a byte source of any size over a
// lossy broadcast and collect it back, the whole configuration one
// spec line shared by both ends. Swap NewLoopback for Dial/Listen and
// the identical code runs over UDP (see cmd/feccast cast/collect).
func ExampleNewCaster() {
	spec := "codec=rse(k=16,ratio=1.5),sched=tx4,payload=64,object=9,window=2,rounds=2,seed=1"

	hub := fecperf.NewLoopback()
	defer hub.Close()
	impairment, _ := fecperf.NewImpairment("gilbert(p=0.01,q=0.5)", 7)
	rxConn := hub.Receiver(impairment, 4096)

	var got bytes.Buffer
	collector, err := fecperf.NewCollector(rxConn, &got, fecperf.WithSpec(spec))
	if err != nil {
		panic(err)
	}
	done := make(chan error, 1)
	go func() { done <- collector.Run(context.Background()) }()

	src := strings.NewReader(strings.Repeat("all the world's a stream. ", 1000))
	caster, err := fecperf.NewCaster(hub.Sender(), src, fecperf.WithSpec(spec))
	if err != nil {
		panic(err)
	}
	if err := caster.Run(context.Background()); err != nil {
		panic(err)
	}
	if err := <-done; err != nil {
		panic(err)
	}
	m, _ := collector.Manifest()
	fmt.Printf("collected %d bytes in %d chunks, CRC verified\n", got.Len(), m.ChunkCount)
	// Output:
	// collected 26000 bytes in 26 chunks, CRC verified
}

// One spec line is a whole simulation too: the same grammar that
// configures a live cast measures its (code, schedule, channel) tuple.
func ExampleSimulate() {
	agg, err := fecperf.Simulate(fecperf.WithSpec(
		"codec=ldgm-staircase(k=1000,ratio=2.5,seed=1),sched=tx2,channel=noloss,trials=10,seed=7"))
	if err != nil {
		panic(err)
	}
	fmt.Printf("failures: %d, inefficiency: %.3f\n", agg.Failures, agg.MeanIneff())
	// Output:
	// failures: 0, inefficiency: 1.000
}

// The Section-6 n_sent sizing: how many packets to actually transmit.
func ExampleOptimalNSent() {
	// 1000-packet object, measured inefficiency 1.05, 10% global loss,
	// 20 packets of safety margin, 2500 packets available.
	nsent, err := fecperf.OptimalNSent(1000, 1.05, 0.10, 20, 2500)
	if err != nil {
		panic(err)
	}
	fmt.Println(nsent)
	// Output:
	// 1187
}

// The analytic channel results of Section 3.2.
func ExampleGlobalLoss() {
	fmt.Printf("%.4f\n", fecperf.GlobalLoss(0.0109, 0.7915))
	// Output:
	// 0.0136
}

// The paper's universal recommendations for unknown channels.
func ExampleUniversalTuples() {
	for _, t := range fecperf.UniversalTuples() {
		fmt.Println(t)
	}
	// Output:
	// (ldgm-triangle; tx4; ratio 2.5)
	// (ldgm-staircase; tx6; ratio 2.5)
}

// Running one of the paper's figures programmatically.
func ExampleRunExperiment() {
	rep, err := fecperf.RunExperiment("fig6-loss-limits", fecperf.ExperimentOptions{
		K: 100, Trials: 1, Seed: 1, Grid: []float64{0, 0.4},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Tables[0].Name)
	// Output:
	// boundary q(p) with inef_ratio=1
}
