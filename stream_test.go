package fecperf

// End-to-end streaming delivery: a deterministic pseudo-random stream
// larger than the old []byte delivery path could sensibly hold is cast
// through a Gilbert-impaired loopback and collected back — the whole
// scenario configured by ONE spec line — with byte-identical output
// (SHA-256 on both sides, plus the manifest's own CRC) and resident
// memory bounded by the window, not the stream: the test samples the
// heap while 68 MiB flow through and fails if it ever approaches the
// stream size.

import (
	"context"
	"crypto/sha256"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"
)

// streamSpec is the whole end-to-end configuration: codec geometry
// (k=256 × 1 KiB symbols ≈ 256 KiB chunks at ratio 1.5), scheduling,
// the loss process, pacing, train identity and window. The same line
// drives cmd/feccast cast/collect.
const streamSpec = "codec=rse(k=256,ratio=1.5,seed=11),sched=tx4," +
	"channel=gilbert(p=0.01,q=0.5),rate=60000,object=21,window=4,rounds=1,payload=1024,seed=4"

// prngStream is a deterministic endless byte stream (xorshift64*), the
// source side of the identity check — no 68 MiB buffer exists anywhere
// in this test.
type prngStream struct {
	state uint64
	word  [8]byte
	have  int
}

func (p *prngStream) Read(buf []byte) (int, error) {
	for i := range buf {
		if p.have == 0 {
			p.state ^= p.state >> 12
			p.state ^= p.state << 25
			p.state ^= p.state >> 27
			x := p.state * 0x2545F4914F6CDD1D
			for j := range p.word {
				p.word[j] = byte(x >> (8 * j))
			}
			p.have = len(p.word)
		}
		buf[i] = p.word[len(p.word)-p.have]
		p.have--
	}
	return len(buf), nil
}

func TestStreamLargerThanMemoryBudget(t *testing.T) {
	streamLen := int64(68 << 20) // past the 64 MiB the issue demands
	if raceEnabled {
		// The race detector slows the GF kernels ~10-20×; a reduced
		// stream still exercises the full multi-window pipeline.
		streamLen = 12 << 20
	}
	// The heap may hold the reorder window, codec tables, pools and GC
	// slack — but never anything near the stream itself.
	const heapBudget = 48 << 20

	cfg, err := ParseSpec(streamSpec)
	if err != nil {
		t.Fatal(err)
	}
	hub := NewLoopback()
	defer hub.Close()
	impairment := cfg.Channel.New(33)
	rxConn := hub.Receiver(impairment, 1<<17)

	var (
		peakMu   sync.Mutex
		peak     uint64
		sampled  int
		overLine uint64
	)
	sampleHeap := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		peakMu.Lock()
		sampled++
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
		if ms.HeapAlloc > heapBudget {
			overLine++
		}
		peakMu.Unlock()
	}

	rxHash := sha256.New()
	chunkSeen := 0
	col, err := NewCollector(rxConn, rxHash,
		WithSpec(streamSpec),
		WithCollectProgress(func(p CollectProgress) {
			if chunkSeen++; chunkSeen%16 == 0 {
				sampleHeap()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	var colErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		colErr = col.Run(ctx)
	}()

	txHash := sha256.New()
	src := io.TeeReader(io.LimitReader(&prngStream{state: 0x9E3779B97F4A7C15}, streamLen), txHash)
	caster, err := NewCaster(hub.Sender(), src,
		WithSpec(streamSpec),
		WithCastProgress(func(CastProgress) { sampleHeap() }))
	if err != nil {
		t.Fatal(err)
	}
	if err := caster.Run(ctx); err != nil {
		t.Fatalf("caster.Run: %v", err)
	}
	wg.Wait()
	if colErr != nil {
		t.Fatalf("collector.Run: %v (progress %+v, stats %+v)", colErr, col.Progress(), col.CollectStats().Receiver)
	}

	// Byte identity, verified without ever materialising the stream.
	tx, rx := txHash.Sum(nil), rxHash.Sum(nil)
	if string(tx) != string(rx) {
		t.Fatalf("stream hash mismatch: cast %x, collected %x", tx, rx)
	}
	p := col.Progress()
	if p.BytesWritten != streamLen {
		t.Fatalf("collected %d bytes, want %d", p.BytesWritten, streamLen)
	}
	m, ok := col.Manifest()
	if !ok || m.TotalSize != uint64(streamLen) {
		t.Fatalf("manifest %+v, ok=%v", m, ok)
	}

	peakMu.Lock()
	defer peakMu.Unlock()
	if sampled == 0 {
		t.Fatal("no heap samples taken")
	}
	t.Logf("streamed %d MiB; peak sampled heap %d MiB over %d samples",
		streamLen>>20, peak>>20, sampled)
	if overLine > 0 {
		t.Fatalf("heap exceeded the %d MiB budget in %d of %d samples (peak %d MiB) — streaming is not memory-bounded",
			heapBudget>>20, overLine, sampled, peak>>20)
	}
}
