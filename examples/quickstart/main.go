// Quickstart: FEC-encode an object, broadcast it over a lossy channel in
// random order (the paper's Tx_model_4), and decode it at a receiver with
// the incremental LDGM decoder — real payloads end to end.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"fecperf"
)

func main() {
	const (
		k       = 2000 // source packets
		ratio   = 1.5  // FEC expansion ratio n/k
		payload = 1024 // bytes per packet
		lossP   = 0.05 // Gilbert p: enter loss state
		lossQ   = 0.60 // Gilbert q: leave loss state
	)

	// 1. Build the object: k payloads of deterministic pseudo-random data.
	rng := rand.New(rand.NewSource(7))
	source := make([][]byte, k)
	for i := range source {
		source[i] = make([]byte, payload)
		rng.Read(source[i])
	}

	// 2. FEC-encode with LDGM Staircase (one big block, fast XOR encode),
	//    the codec resolved from one spec string.
	code, err := fecperf.CodecByName(fmt.Sprintf("ldgm-staircase(k=%d,ratio=%g,seed=42)", k, ratio))
	if err != nil {
		log.Fatal(err)
	}
	parity, err := code.Encode(source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("encoded %d source packets into %d parity packets (ratio %.1f)\n",
		k, len(parity), ratio)

	// 3. Schedule the transmission: everything in random order (Tx_model_4),
	//    the paper's recommendation when the channel is unknown.
	tx4, err := fecperf.SchedulerByName("tx4")
	if err != nil {
		log.Fatal(err)
	}
	schedule := tx4.Schedule(code.Layout(), rng)

	// 4. Walk the schedule through a bursty Gilbert channel and feed the
	//    survivors to the incremental decoder.
	ch := fecperf.ChannelSpec{Kind: "gilbert", P: lossP, Q: lossQ}.New(99)
	// The schedule is streaming: O(1) memory however large the object,
	// each position evaluated only as it is sent.
	dec, err := code.NewDecoder(payload)
	if err != nil {
		log.Fatal(err)
	}
	defer dec.Close()
	sent, received := 0, 0
	cur := schedule.Cursor()
	for {
		id, ok := cur.Next()
		if !ok {
			break
		}
		sent++
		if ch.Lost() {
			continue
		}
		received++
		var data []byte
		if id < k {
			data = source[id]
		} else {
			data = parity[id-k]
		}
		if dec.ReceivePayload(id, data) {
			break // fully decoded — the sender could stop here
		}
	}
	if !dec.Done() {
		log.Fatal("decoding failed: channel too lossy for this ratio")
	}
	fmt.Printf("decoded after receiving %d packets (%d sent, %.1f%% lost)\n",
		received, sent, 100*float64(sent-received)/float64(sent))
	fmt.Printf("inefficiency ratio: %.4f (1.0 is optimal)\n", float64(received)/float64(k))

	// 5. Verify every payload, including the ones rebuilt from parity.
	for i := range source {
		if !bytes.Equal(dec.Source(i), source[i]) {
			log.Fatalf("payload %d corrupted after decode", i)
		}
	}
	fmt.Println("all payloads verified: object reconstructed exactly")
}
