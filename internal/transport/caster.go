package transport

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"

	"fecperf/internal/core"
	"fecperf/internal/obs"
	"fecperf/internal/session"
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
	// the sender-side memory bound and the backpressure on the source
	// reader: reading pauses while a full window is on the air.
	Delivery
	// Rate limits transmission in packets per second (0 = unpaced);
	// Burst is the token-bucket depth — see SenderConfig. One pacer share
	// spans the whole cast, so the rate holds across window groups.
	Rate  float64
	Burst int
	// Pacer, when set, is the cast's admission source instead (Rate and
	// Burst are then ignored) — see SenderConfig.Pacer. The daemon paces
	// streaming casts through a SharedPacer share this way.
	Pacer Pacer
	// OnProgress, when set, is called after every transmitted window
	// group and once more when the cast completes.
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
// stream: at most Window encoded chunks (plus the manifest) are
// resident at any moment, so objects far larger than RAM cast in O(1)
// space.
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
	window    obs.Gauge // chunks resident in the current window

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
		r.GaugeFunc("caster_window_chunks", "Encoded chunks resident in the current window.", nil, c.window.Load)
	}
	return c, nil
}

// Run reads the source to EOF, casting it window by window, then seals
// the train with the manifest. It returns the first read, encode or
// send error; cancelling ctx stops between packets with ctx.Err().
func (c *Caster) Run(ctx context.Context) error {
	if c.ran {
		return fmt.Errorf("transport: caster Run called twice")
	}
	c.ran = true

	// The cast's own pacer share outlives the per-group senders: a fresh
	// bucket per group would leave small groups unpaced and let large
	// ones overshoot by a burst each.
	pacer, release := ownPacer(c.cfg.Pacer, c.cfg.Rate, c.cfg.Burst)
	defer release()

	chunkData := session.ChunkDataSize(c.cfg.Codec.K, c.chunk.PayloadSize)
	buf := make([]byte, chunkData)
	crc := crc32.NewIEEE()
	var total uint64
	var window []*session.Object
	idx, group := 0, 0
	// One cleanup for every way out — complete, cancelled or failed at
	// any step: whatever the window holds goes back to the pool.
	// Object.Close is idempotent, so a group its sender already closed
	// costs nothing here.
	closeWindow := func() {
		for _, o := range window {
			o.Close()
		}
		window = window[:0]
		c.window.Set(0)
	}
	defer closeWindow()

	flush := func(final bool) error {
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
				return fmt.Errorf("transport: encoding manifest: %w", err)
			}
			window = append(window, m)
		}
		if len(window) == 0 {
			return nil
		}
		chunksInGroup := len(window)
		if final {
			chunksInGroup--
		}
		s := NewSender(c.conn, SenderConfig{
			Pacer:     pacer,
			BatchSize: c.cfg.BatchSize,
			Rounds:    c.cfg.Rounds,
			Scheduler: c.cfg.Scheduler,
			// Every group draws fresh schedules: the sender reseeds per
			// (round, object), so distinct group seeds keep rounds from
			// repeating the same erasure-aligned order.
			Seed: core.DeriveSeed(c.cfg.Seed, 0xCA57, uint64(group)),
			// No Metrics: the group senders are throwaway; their stats
			// fold into the caster's registered aggregates below.
			Tracer: c.cfg.Tracer,
		})
		for _, o := range window {
			if err := s.Add(o); err != nil {
				return err
			}
		}
		err := s.Run(ctx)
		st := s.Stats()
		c.packets.Add(st.PacketsSent)
		c.bytes.Add(st.BytesSent)
		c.pacerWait.Add(st.PacerWaitNS)
		closeWindow() // the group is off the air: its frame slabs go back now
		if err != nil {
			return err
		}
		c.chunks.Add(uint64(chunksInGroup))
		group++
		if c.cfg.OnProgress != nil {
			c.cfg.OnProgress(CastProgress{
				ChunksCast: int(c.chunks.Load()),
				BytesRead:  int64(c.read.Load()),
				Done:       final,
			})
		}
		return nil
	}

	for {
		// Reading and encoding a window never touches the conn, so check
		// cancellation explicitly between chunks.
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := io.ReadFull(c.src, buf)
		if n > 0 {
			crc.Write(buf[:n])
			total += uint64(n)
			c.read.Add(uint64(n))
			chunk := c.chunk
			chunk.ObjectID = session.TrainChunkID(c.cfg.BaseObjectID, idx)
			obj, encErr := session.EncodeObject(buf[:n], chunk)
			if encErr != nil {
				return fmt.Errorf("transport: encoding chunk %d: %w", idx, encErr)
			}
			idx++
			window = append(window, obj)
			c.window.Set(int64(len(window)))
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
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			return flush(true)
		default:
			return fmt.Errorf("transport: reading source: %w", err)
		}
		if len(window) >= c.cfg.Window {
			if err := flush(false); err != nil {
				return err
			}
		}
	}
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
