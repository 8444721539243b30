package transport

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"fecperf/internal/core"
	"fecperf/internal/obs"
	"fecperf/internal/session"
	"fecperf/internal/symbol"
	"fecperf/internal/wire"
)

// Caster defaults.
const (
	// DefaultChunkK is the source symbols per full chunk of a train whose
	// Delivery.Codec.K is zero: 256 symbols of 1024 B ≈ 256 KiB chunks.
	DefaultChunkK = 256
	// DefaultPayloadSize is the symbol size when unset.
	DefaultPayloadSize = 1024
	// DefaultWindow is how many chunks are encoded and interleaved at
	// once when Delivery.Window is zero.
	DefaultWindow = 4
	// DefaultGroupRounds is how many carousel rounds each window group
	// is transmitted when Delivery.Rounds is zero. More rounds buy loss
	// resilience at the price of throughput.
	DefaultGroupRounds = 2
	// DefaultRatio is the FEC expansion ratio when unset.
	DefaultRatio = 1.5
)

// CasterConfig tunes a streaming cast: the Delivery it carries plus the
// caller's own pacing and observation handles.
type CasterConfig struct {
	// Delivery is what goes on the air. Codec.K and PayloadSize fix the
	// chunk size (session.ChunkDataSize stream bytes per chunk); the
	// manifest always ships as Reed-Solomon — every datagram is
	// self-describing, so the families mix freely on one train. Window is
	// the sender-side memory bound — up to two windows are resident, one
	// on the air and one being encoded — and the backpressure on the
	// source reader: with a full window on the air, reading pauses until
	// the start rule (startAfter) admits the next group.
	Delivery
	// Rate limits transmission in packets per second (0 = unpaced);
	// Burst is the token-bucket depth — see SenderConfig. One pacer share
	// spans the whole cast, so the rate holds across window groups.
	Rate  float64
	Burst int
	// Pacer, when non-nil, is the cast's admission source instead (Rate
	// and Burst are then ignored) — see SenderConfig.Pacer. The daemon
	// paces streaming casts through a SharedPacer share this way.
	Pacer *PacerShare
	// OnProgress, when set, is called after every transmitted window
	// group, the last call with Done — one call at a time, in group
	// order, all of them before Run returns, but not on the goroutine
	// that called Run.
	OnProgress func(CastProgress)
	// Metrics, when set, exposes the cast's aggregate counters on the
	// registry (caster_* series). The per-group inner senders stay
	// unregistered — their stats fold into the caster's totals.
	Metrics *obs.Registry
	// Tracer, when set, records enqueue events as chunks are encoded
	// and first_tx events as each chunk first hits the Conn.
	Tracer *obs.Tracer
}

// CastProgress describes a running cast.
type CastProgress struct {
	// ChunksCast counts chunks whose transmission window has completed.
	ChunksCast int
	// BytesRead counts source-stream bytes consumed so far.
	BytesRead int64
	// Done is set on the final callback, after the manifest went out.
	Done bool
}

// CasterStats is a point-in-time snapshot of cast counters.
type CasterStats struct {
	// PacketsSent and BytesSent count datagrams handed to the Conn.
	PacketsSent uint64
	BytesSent   uint64
	// ChunksCast counts fully transmitted chunks.
	ChunksCast uint64
	// BytesRead counts source-stream bytes consumed.
	BytesRead uint64
	// PacerWaitNS counts nanoseconds the cast's senders spent blocked in
	// the rate limiter.
	PacerWaitNS uint64
}

// Caster streams a byte source of arbitrary (and unknown) length over a
// Conn as a train of FEC-encoded delivery objects: the stream is cut
// into chunks of K symbols, each chunk is encoded and transmitted for a
// bounded number of interleaved carousel rounds alongside its window
// neighbours, and a small trailing manifest (chunk count, total size,
// stream CRC) seals the train. Peak memory is the window, not the
// stream: at most two windows of encoded chunks (plus the manifest) are
// resident at any moment — one on the air, the next being read and
// encoded — so objects far larger than RAM cast in O(1) space. A chunk is
// read into pooled 64 KiB pieces, back in the pool once it is encoded: a
// cast allocates no chunk-sized buffer, and holds one chunk more at most.
//
// The receiving side is Collector, which reassembles completed chunks
// in order into an io.Writer. Chunk object IDs are sequential
// (session.TrainChunkID), so a collector orders chunks before the
// manifest arrives; the manifest — which a streaming sender can only
// write after reading the last source byte — tells it when the train
// is done and lets it verify the whole stream end to end.
//
// Run may be called once; Stats is safe concurrently with Run.
type Caster struct {
	conn  Conn
	src   io.Reader
	cfg   CasterConfig         // Codec.K, Window and Rounds resolved
	chunk session.SenderConfig // every chunk's config but its ObjectID

	packets   obs.Counter
	bytes     obs.Counter
	chunks    obs.Counter
	read      obs.Counter
	pacerWait obs.Counter
	window    obs.Gauge // chunks resident: on the air, and encoded for the next group

	manifest session.Manifest
	ran      bool
}

// NewCaster returns a caster reading from src and writing datagrams to
// conn. Configuration errors surface here, not mid-stream.
func NewCaster(conn Conn, src io.Reader, cfg CasterConfig) (*Caster, error) {
	chunk, err := cfg.ObjectConfig(0)
	if err != nil {
		return nil, err
	}
	chunk.NSent = 0 // trains send whole rounds
	if cfg.Codec.K == 0 {
		cfg.Codec.K = DefaultChunkK
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = DefaultGroupRounds
	}
	if session.ChunkDataSize(cfg.Codec.K, chunk.PayloadSize) <= 0 {
		return nil, fmt.Errorf("transport: chunk of k=%d × %d B payloads leaves no room for data",
			cfg.Codec.K, chunk.PayloadSize)
	}
	c := &Caster{conn: conn, src: src, cfg: cfg, chunk: chunk}
	if r := cfg.Metrics; r != nil {
		r.CounterFunc("caster_packets_total", "Datagrams handed to the conn.", nil, c.packets.Load)
		r.CounterFunc("caster_bytes_total", "Datagram bytes handed to the conn.", nil, c.bytes.Load)
		r.CounterFunc("caster_chunks_total", "Fully transmitted chunks.", nil, c.chunks.Load)
		r.CounterFunc("caster_bytes_read_total", "Source-stream bytes consumed.", nil, c.read.Load)
		r.CounterFunc("caster_pacer_wait_ns_total", "Nanoseconds the cast's senders blocked in the rate limiter.", nil, c.pacerWait.Load)
		r.GaugeFunc("caster_window_chunks", "Encoded chunks resident: the window on the air plus the one being encoded (at most twice the window).", nil, c.window.Load)
	}
	return c, nil
}

// castGroup is one window group on its way from the reading stage to the
// sending stage.
type castGroup struct {
	objs   []*session.Object // the window's chunks; the manifest last when final
	index  int               // position in the train: seeds the group's schedules
	final  bool
	encode time.Duration // the reading stage's time per full window, smoothed
	// start is closed by the sending stage when the reading stage may
	// begin the next window: see startAfter.
	start chan struct{}
}

// startAfter is the start rule of the cast's pipeline: how many of a
// group's total datagrams the sending stage must have handed to the conn
// before the reading stage starts on the next window. encode is how long
// the reading stage takes to fill a window and rate how many datagrams a
// second the sending stage gets out; the next window is started as late
// as still has it ready when this group ends, encode×rate datagrams from
// the end. A cast bound by its sender (that lead covers the group) starts
// at once and overlaps fully; one bound by its receiver or its pacer,
// whose sending stage spends the group blocked, starts late and reads the
// source no earlier than a cast without the overlap would — read-ahead a
// slow receiver cannot use is only chunk latency. Without a rate estimate
// yet (the first group) it is the last quarter.
func startAfter(encode time.Duration, rate float64, total int) int {
	if total <= 0 {
		return 0
	}
	if encode <= 0 || !(rate > 0) {
		return total - total/4
	}
	lead := encode.Seconds() * rate
	if !(lead < float64(total)) {
		return 0
	}
	return total - int(lead)
}

// ewma folds a new measurement into a smoothed one (weight 1/4; the
// first measurement stands as it is).
func ewma(avg, x float64) float64 {
	if avg == 0 {
		return x
	}
	return avg + (x-avg)/4
}

// Run reads the source to EOF, casting it window by window, then seals
// the train with the manifest. It returns the first read, encode or
// send error; cancelling ctx stops between packets with ctx.Err().
//
// Run is a two-stage pipeline. The reading stage — Run's own goroutine —
// reads, checksums and encodes window group g+1 while the sending stage,
// one goroutine for the whole cast, carousels group g. The hand-off
// between them is unbuffered, so at most two windows exist at a time,
// and the reading stage waits for the sending stage's start signal
// (startAfter) before it touches the source again.
func (c *Caster) Run(ctx context.Context) (err error) {
	if c.ran {
		return fmt.Errorf("transport: caster Run called twice")
	}
	c.ran = true

	// The cast's own pacer share outlives the per-group senders: a fresh
	// bucket per group would leave small groups unpaced and let large
	// ones overshoot by a burst each.
	pacer, release := ownPacer(c.cfg.Pacer, c.cfg.Rate, c.cfg.Burst)
	defer release()

	// The first failure of either stage is Run's result and stops the
	// other stage through ctx.
	ctx, cancel := context.WithCancel(ctx)
	var (
		failOnce sync.Once
		failure  error
	)
	fail := func(err error) error {
		failOnce.Do(func() {
			failure = err
			cancel()
		})
		return err
	}

	var windows [2][]*session.Object // alternate: one on the air, one being filled
	air := make(chan castGroup)      // unbuffered: the sending stage takes group g+1 when g is off the air
	sent := make(chan struct{})      // closed when the sending stage has exited
	go func() {
		defer close(sent)
		// One sender carousels every group in turn.
		s := NewSender(c.conn, SenderConfig{
			Pacer:     pacer,
			BatchSize: c.cfg.BatchSize,
			Rounds:    c.cfg.Rounds,
			Scheduler: c.cfg.Scheduler,
			// No Metrics: its stats fold into the caster's registered
			// aggregates group by group.
			Tracer: c.cfg.Tracer,
		})
		rate := 0.0 // datagrams per second, smoothed over groups
		for g := range air {
			n, took, err := c.send(ctx, s, g, rate)
			if err != nil {
				fail(err)
				return
			}
			if n > 0 && took > 0 {
				rate = ewma(rate, float64(n)/took.Seconds())
			}
		}
	}()
	// One cleanup for every way out — complete, cancelled or failed in
	// either stage. The sending stage finishes the group it has (at once,
	// if a failure cancelled ctx) and exits; from then on nothing reads a
	// frame, and whatever the two windows hold goes back to the pool.
	// Object.Close is idempotent, so a group the sending stage already
	// closed costs nothing here.
	defer func() {
		close(air)
		<-sent
		cancel()
		for _, w := range windows {
			for _, o := range w {
				o.Close()
			}
		}
		c.window.Set(0)
		if failure != nil {
			err = failure
		}
	}()

	chunkData := session.ChunkDataSize(c.cfg.Codec.K, c.chunk.PayloadSize)
	stage := symbol.NewSlab((chunkData+symbol.MaxPooled-1)/symbol.MaxPooled, min(chunkData, symbol.MaxPooled))
	defer stage.Release()
	pieces := make([][]byte, 0, stage.Slots()) // the stage pieces a chunk filled
	crc := crc32.NewIEEE()
	var total uint64
	var encode time.Duration // the time a full window takes to read and encode, smoothed
	idx := 0
	for group := 0; ; group++ {
		window := &windows[group%2]
		*window = (*window)[:0]
		final := false
		began := time.Now()
		for !final && len(*window) < c.cfg.Window {
			// Reading and encoding a window never touches the conn, so
			// check cancellation explicitly between chunks.
			if err := ctx.Err(); err != nil {
				return fail(err)
			}
			segs, n, err := readChunk(c.src, &stage, chunkData, pieces[:0])
			if n > 0 {
				for _, seg := range segs {
					crc.Write(seg)
				}
				total += uint64(n)
				c.read.Add(uint64(n))
				chunk := c.chunk
				chunk.ObjectID = session.TrainChunkID(c.cfg.BaseObjectID, idx)
				obj, encErr := session.EncodeSegments(segs, chunk)
				if encErr != nil {
					return fail(fmt.Errorf("transport: encoding chunk %d: %w", idx, encErr))
				}
				idx++
				*window = append(*window, obj)
				c.window.Add(1)
				if tr := c.cfg.Tracer; tr != nil {
					tr.Emit(obs.Event{
						Event:  obs.TraceEnqueue,
						Object: obj.ObjectID(),
						Chunk:  idx - 1,
						K:      obj.K(),
						N:      obj.N(),
						Bytes:  int64(n),
					})
				}
			}
			stage.Reset() // the chunk is in its frames
			switch err {
			case nil:
			case io.EOF, io.ErrUnexpectedEOF:
				final = true
			default:
				return fail(fmt.Errorf("transport: reading source: %w", err))
			}
		}
		if final {
			c.manifest = session.Manifest{
				ChunkCount: uint32(idx),
				ChunkSize:  uint32(chunkData),
				TotalSize:  total,
				StreamCRC:  crc.Sum32(),
			}
			m, err := session.EncodeObject(c.manifest.Encode(), session.SenderConfig{
				ObjectID: c.cfg.BaseObjectID,
				Family:   wire.CodeRSE,
				Ratio:    2, // the manifest is one symbol; always send a spare
				// The manifest is tiny; its own symbol, not the chunks'
				// (possibly large) one, keeps the padding negligible.
				PayloadSize: session.ManifestLen + 8,
				Seed:        c.cfg.Seed,
			})
			if err != nil {
				return fail(fmt.Errorf("transport: encoding manifest: %w", err))
			}
			*window = append(*window, m)
		} else {
			encode = time.Duration(ewma(float64(encode), float64(time.Since(began))))
		}
		g := castGroup{objs: *window, index: group, final: final, encode: encode}
		if !final {
			g.start = make(chan struct{})
		}
		select {
		case air <- g:
		case <-ctx.Done():
			return fail(ctx.Err())
		}
		if final {
			return nil // or what the cleanup finds the last group failed with
		}
		select {
		case <-g.start:
		case <-ctx.Done():
			return fail(ctx.Err())
		}
	}
}

// readChunk reads up to size bytes from src into the stage's pieces and
// appends the filled ones to segs. n and err are what io.ReadFull of the
// whole chunk returns, io.ErrUnexpectedEOF also on a piece boundary.
func readChunk(src io.Reader, stage *symbol.Slab, size int, segs [][]byte) (_ [][]byte, n int, err error) {
	for i := 0; n < size && err == nil; i++ {
		piece := stage.Draw(i)
		var m int
		m, err = io.ReadFull(src, piece[:min(len(piece), size-n)])
		segs, n = append(segs, piece[:m]), n+m
	}
	if err == io.EOF && n > 0 {
		err = io.ErrUnexpectedEOF
	}
	return segs, n, err
}

// send is the sending stage's work on one group: the cast's sender
// carousels it, what the group adds to the sender's counters folds into
// the cast's, and its frame slabs go back to the pool the moment it is
// off the air. It returns how many datagrams went out after the start
// signal and how long they took: the send rate while the reading stage
// is running too, which is the rate the next signal has to be timed by.
func (c *Caster) send(ctx context.Context, s *Sender, g castGroup, rate float64) (int, time.Duration, error) {
	// Every group draws fresh schedules: the sender reseeds per (round,
	// object), so distinct group seeds keep rounds from repeating the same
	// erasure-aligned order.
	s.regroup(core.DeriveSeed(c.cfg.Seed, 0xCA57, uint64(g.index)))
	before := s.Stats()
	for _, o := range g.objs {
		if err := s.Add(o); err != nil {
			return 0, 0, err
		}
	}
	if g.start != nil {
		if after := startAfter(g.encode, rate, s.planned()); after > 0 {
			s.notify, s.notifyAt = g.start, before.PacketsSent+uint64(after)
		} else {
			close(g.start)
		}
	}
	// The signal, unless a flush gives it later.
	s.notifiedAt, s.notifiedSent = time.Now(), before.PacketsSent
	err := s.Run(ctx)
	took := time.Since(s.notifiedAt)
	if s.notify != nil {
		close(s.notify) // the carousel stopped short of notifyAt
	}
	st := s.Stats()
	c.packets.Add(st.PacketsSent - before.PacketsSent)
	c.bytes.Add(st.BytesSent - before.BytesSent)
	c.pacerWait.Add(st.PacerWaitNS - before.PacerWaitNS)
	for _, o := range g.objs {
		o.Close()
	}
	chunks := len(g.objs)
	if g.final {
		chunks-- // the manifest
	}
	c.window.Add(-int64(chunks))
	if err != nil {
		return 0, 0, err
	}
	c.chunks.Add(uint64(chunks))
	if c.cfg.OnProgress != nil {
		c.cfg.OnProgress(CastProgress{
			ChunksCast: int(c.chunks.Load()),
			BytesRead:  int64(c.read.Load()),
			Done:       g.final,
		})
	}
	return int(st.PacketsSent - s.notifiedSent), took, nil
}

// Manifest returns the train manifest Run sealed the cast with; ok is
// false until Run has read the source to EOF.
func (c *Caster) Manifest() (m session.Manifest, ok bool) {
	if !c.ran || c.manifest.ChunkSize == 0 {
		return session.Manifest{}, false
	}
	return c.manifest, true
}

// Stats returns a snapshot of the caster's counters.
func (c *Caster) Stats() CasterStats {
	return CasterStats{
		PacketsSent: c.packets.Load(),
		BytesSent:   c.bytes.Load(),
		ChunksCast:  c.chunks.Load(),
		BytesRead:   c.read.Load(),
		PacerWaitNS: c.pacerWait.Load(),
	}
}
