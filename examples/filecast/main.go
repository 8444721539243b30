// Filecast: a complete FLUTE-like file transfer over the transport
// subsystem's in-memory lossy backend, entirely through the public
// spec-driven facade.
//
// A Caster streams a 4 MiB "file" as a train of FEC-encoded chunks —
// bounded memory however large the file — and two Collectors, each
// behind its own Gilbert loss process (one light, one bursty), rebuild
// it byte-for-byte, verified by the train manifest's stream CRC. The
// whole configuration is ONE spec line shared by every party; swap
// NewLoopback for Dial/Listen (see cmd/feccast cast/collect) and the
// same code runs over real UDP.
//
// For the whole-object carousel (late joiners bootstrap mid-broadcast
// from any datagram) see NewBroadcaster / NewReceiverDaemon and
// examples/broadcast.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"

	"fecperf"
)

func main() {
	// The shared scenario: 256 KiB chunks of Reed-Solomon at ratio 2,
	// Tx_model_4 scheduling (the paper's recommendation for unknown
	// channels), object train 7.
	const spec = "codec=rse(k=256,ratio=2,seed=42),sched=tx4,payload=1024,object=7,window=4,rounds=2,seed=9"

	// The "file": 4 MiB of pseudo-random content, hashed on the fly.
	rng := rand.New(rand.NewSource(1))
	file := make([]byte, 4<<20)
	rng.Read(file)

	hub := fecperf.NewLoopback()
	defer hub.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type rxSide struct {
		name string
		col  *fecperf.Collector
		out  *bytes.Buffer
		err  error
	}
	newSide := func(name, channelSpec string, seed uint64) *rxSide {
		ch, err := fecperf.ChannelByName(channelSpec)
		if err != nil {
			log.Fatal(err)
		}
		side := &rxSide{name: name, out: &bytes.Buffer{}}
		side.col, err = fecperf.NewCollector(hub.Receiver(ch.New(seed), 1<<16), side.out,
			fecperf.WithSpec(spec))
		if err != nil {
			log.Fatal(err)
		}
		return side
	}
	sides := []*rxSide{
		newSide("receiver-A (light loss)", "gilbert(p=0.01,q=0.7)", 100),
		newSide("receiver-B (bursty loss)", "gilbert(p=0.05,q=0.3)", 101),
	}

	var wg sync.WaitGroup
	for _, s := range sides {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.err = s.col.Run(ctx)
		}()
	}

	// The caster reads the file as a stream: nothing is ever held
	// beyond the 4-chunk window, so a 4 GiB file would cast the same.
	caster, err := fecperf.NewCaster(hub.Sender(), bytes.NewReader(file),
		fecperf.WithSpec(spec),
		fecperf.WithCastProgress(func(p fecperf.CastProgress) {
			if p.Done {
				fmt.Printf("caster: %d bytes read, train sealed\n", p.BytesRead)
			}
		}))
	if err != nil {
		log.Fatal(err)
	}
	if err := caster.Run(ctx); err != nil {
		log.Fatal(err)
	}
	st := caster.Stats()
	fmt.Printf("caster: %d chunks in %d datagrams (%d bytes on the wire)\n",
		st.ChunksCast, st.PacketsSent, st.BytesSent)

	wg.Wait()
	for _, s := range sides {
		if s.err != nil {
			log.Fatalf("%s: %v (stats %+v)", s.name, s.err, s.col.CollectStats())
		}
		status := "corrupted!"
		if bytes.Equal(s.out.Bytes(), file) {
			status = "verified byte-for-byte"
		}
		rxStats := s.col.CollectStats().Receiver
		fmt.Printf("%-26s complete after %d ingested datagrams (inefficiency %.4f) — %s\n",
			s.name, rxStats.PacketsIngested,
			float64(rxStats.PacketsIngested)/float64(len(file)/1024), status)
	}
}
