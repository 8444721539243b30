// Broadcast: one sender, many heterogeneous receivers. The core promise of
// FEC multicast (the paper's motivating scenario: FLUTE/ALC content
// delivery with no back channel) is that the *same* parity stream repairs
// *different* losses at every receiver — no retransmission, unlimited
// receiver scalability.
//
// The sender pushes one Tx_model_4 schedule; receivers behind channels of
// very different quality each decode as soon as they individually can.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"fecperf"
)

type receiverState struct {
	name      string
	ch        fecperf.Channel
	rx        fecperf.Receiver
	received  int
	decodedAt int // packets received when decoding completed (0 = pending)
	lost      int
}

func main() {
	const (
		k     = 5000
		ratio = 2.5
	)

	code, err := fecperf.CodecByName(fmt.Sprintf("ldgm-triangle(k=%d,ratio=%g,seed=42)", k, ratio))
	if err != nil {
		log.Fatal(err)
	}
	layout := code.Layout()

	// The paper's universal recommendation for unknown channels:
	// LDGM Triangle with a fully random schedule.
	tx4, err := fecperf.SchedulerByName("tx4")
	if err != nil {
		log.Fatal(err)
	}
	schedule := tx4.Schedule(layout, rand.New(rand.NewSource(1)))

	// Receivers with wildly different channels, all fed the same stream.
	specs := []struct {
		name string
		p, q float64
	}{
		{"wired-clean", 0.001, 0.9},  // nearly lossless
		{"wifi-light", 0.02, 0.7},    // light independent-ish loss
		{"mobile-bursty", 0.05, 0.2}, // long loss bursts
		{"edge-of-range", 0.15, 0.3}, // heavy bursty loss
	}
	var receivers []*receiverState
	for i, s := range specs {
		ch := fecperf.ChannelSpec{Kind: "gilbert", P: s.p, Q: s.q}.New(uint64(100 + i))
		receivers = append(receivers, &receiverState{
			name: s.name, ch: ch, rx: code.NewReceiver(),
		})
	}

	// Single multicast transmission: every packet goes to every receiver,
	// each channel deciding independently what survives. The schedule is
	// never materialised — each position is computed as it is broadcast.
	for sent := 0; sent < schedule.Len(); sent++ {
		id := schedule.At(sent)
		for _, r := range receivers {
			if r.decodedAt > 0 {
				continue
			}
			if r.ch.Lost() {
				r.lost++
				continue
			}
			r.received++
			if r.rx.Receive(id) {
				r.decodedAt = sent + 1
			}
		}
	}

	fmt.Printf("broadcast of k=%d packets (ratio %.1f, %d total) to %d receivers:\n\n",
		k, ratio, layout.N, len(receivers))
	fmt.Printf("%-15s %10s %10s %12s %14s\n",
		"receiver", "received", "lost", "loss-rate", "inefficiency")
	for _, r := range receivers {
		if r.decodedAt == 0 {
			fmt.Printf("%-15s %10d %10d %11.1f%% %14s\n",
				r.name, r.received, r.lost,
				100*float64(r.lost)/float64(r.received+r.lost), "FAILED")
			continue
		}
		fmt.Printf("%-15s %10d %10d %11.1f%% %14.4f\n",
			r.name, r.received, r.lost,
			100*float64(r.lost)/float64(r.received+r.lost),
			float64(r.received)/float64(k))
	}
	fmt.Println("\nevery receiver repaired a different loss pattern from the same",
		"\nparity stream — no feedback channel, no per-receiver retransmission.")
}
