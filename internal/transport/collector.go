package transport

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"fecperf/internal/obs"
	"fecperf/internal/session"
)

// DefaultMaxPending is the Collector's default bound on completed
// chunks buffered out of order, waiting for an earlier chunk to decode.
const DefaultMaxPending = 64

// maxTrainChunks bounds the chunk index a collector accepts before the
// manifest announces the true train length: object IDs below the
// train's base wrap around uint32 to indexes near 2^32, and treating
// those as plausible chunks would let foreign objects on a shared conn
// poison the reorder buffer.
const maxTrainChunks = 1 << 30

// CollectorConfig tunes a streaming collect.
type CollectorConfig struct {
	// BaseObjectID selects the train: the manifest's object ID
	// (chunks ride at BaseObjectID+1+i). Must match the caster's.
	BaseObjectID uint32
	// MaxPending bounds completed chunks held out of order (default
	// DefaultMaxPending). A caster window is the natural scale: chunks
	// of one window complete in any order, so the bound should exceed
	// the sender's Window. Overflow is a hard error — on a one-pass
	// stream a chunk that outruns the bound will never be writable.
	MaxPending int
	// MaxInFlight, MaxObjectPackets, MTU and ReadBatch pass through to
	// the underlying ReceiverDaemon (see ReceiverConfig).
	MaxInFlight      int
	MaxObjectPackets int
	MTU              int
	ReadBatch        int
	// OnProgress, when set, is called — on the Run goroutine — after
	// every in-order chunk write and when the manifest arrives.
	OnProgress func(CollectProgress)
	// Metrics, when set, exposes the collect's counters on the registry
	// (collector_* series) and passes through to the underlying
	// ReceiverDaemon (receiver_* series).
	Metrics *obs.Registry
	// Tracer, when set, records write and verify lifecycle events, and
	// passes through to the daemon for kth_rx/decode events.
	Tracer *obs.Tracer
}

// CollectProgress describes a running collect.
type CollectProgress struct {
	// ChunksWritten and BytesWritten count the in-order prefix flushed
	// to the destination writer.
	ChunksWritten int
	BytesWritten  int64
	// ChunksTotal is the train length, or -1 until the manifest arrives
	// (the caster seals the train only after reading its last byte).
	ChunksTotal int
}

// Collector reassembles a Caster's chunk train from a Conn into an
// io.Writer: chunks decode in any order (bounded by MaxPending), are
// written strictly in order, and the trailing manifest closes the
// stream — total length and whole-stream CRC are verified before Run
// returns success. Memory stays bounded by the reordering window and
// the daemon's reassembly bounds, never by the stream size.
//
// The collector owns each decoded chunk from the moment it decodes, in
// the form the decoder left it: a slab of source symbols. It writes and
// checksums the chunk's bytes in order straight out of that slab — one
// Write per slab buffer — and then returns the slab to the pool, so
// between the read buffer and the destination writer a payload byte is
// copied exactly once, and the slabs of one window keep being reused.
//
// Run drives the underlying ReceiverDaemon until the train completes,
// the writer or stream fails, or ctx is cancelled.
type Collector struct {
	daemon *ReceiverDaemon
	dst    io.Writer
	cfg    CollectorConfig
	finish context.CancelFunc

	mu       sync.Mutex
	manifest *session.Manifest
	pending  map[int]*session.Decoded // decoded out of order, slab-resident
	next     int
	written  int64
	crc      uint32
	complete bool
	err      error

	chunksWritten obs.Counter
	bytesWritten  obs.Counter
	crcFailures   obs.Counter
}

// NewCollector returns a collector writing the reassembled stream to dst.
func NewCollector(conn Conn, dst io.Writer, cfg CollectorConfig) *Collector {
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = DefaultMaxPending
	}
	c := &Collector{
		dst:     dst,
		cfg:     cfg,
		pending: make(map[int]*session.Decoded),
	}
	c.daemon = NewReceiverDaemon(conn, ReceiverConfig{
		MaxInFlight:      cfg.MaxInFlight,
		MaxObjectPackets: cfg.MaxObjectPackets,
		MTU:              cfg.MTU,
		ReadBatch:        cfg.ReadBatch,
		Metrics:          cfg.Metrics,
		Tracer:           cfg.Tracer,
	})
	c.daemon.sink = c.onObject
	if r := cfg.Metrics; r != nil {
		r.CounterFunc("collector_chunks_written_total", "In-order chunks flushed to the destination.", nil, c.chunksWritten.Load)
		r.CounterFunc("collector_bytes_written_total", "In-order bytes flushed to the destination.", nil, c.bytesWritten.Load)
		r.CounterFunc("collector_crc_failures_total", "Trains failing end-to-end CRC or length verification.", nil, c.crcFailures.Load)
		r.GaugeFunc("collector_pending_chunks", "Decoded chunks buffered out of order.", nil, func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return int64(len(c.pending))
		})
	}
	return c
}

// Run collects until the train is complete (nil), the destination
// writer or the stream's integrity fails (the error), or ctx is
// cancelled (ctx.Err()).
func (c *Collector) Run(ctx context.Context) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.mu.Lock()
	c.finish = cancel
	c.mu.Unlock()

	err := c.daemon.Run(runCtx)

	c.mu.Lock()
	defer c.mu.Unlock()
	// Whatever the outcome, nothing will be written any more: return the
	// slabs of chunks still waiting for a predecessor, and of objects the
	// daemon had only partly received.
	for i, chunk := range c.pending {
		chunk.Release()
		delete(c.pending, i)
	}
	c.daemon.forgetInFlight()
	switch {
	case c.err != nil:
		return c.err
	case c.complete:
		return nil
	default:
		return err
	}
}

// onObject routes one decoded object (manifest or chunk) on the daemon's
// Run goroutine. The object arrives owned by the collector: it is either
// kept for an in-order write or released here. Progress callbacks fire
// after the lock is released, so they may call Progress/Manifest/Stats
// freely.
func (c *Collector) onObject(id uint32, obj *session.Decoded) {
	var events []CollectProgress
	c.mu.Lock()
	if !c.onObjectLocked(id, obj, &events) {
		obj.Release()
	}
	c.mu.Unlock()
	for _, ev := range events { // queued only when OnProgress is set
		c.cfg.OnProgress(ev)
	}
}

// onObjectLocked reports whether it took charge of obj (queued it, or
// wrote and released it); false leaves the release to the caller.
func (c *Collector) onObjectLocked(id uint32, obj *session.Decoded, events *[]CollectProgress) bool {
	if c.complete || c.err != nil {
		return false
	}
	if id == c.cfg.BaseObjectID {
		m, err := session.DecodeManifest(obj.Bytes())
		if err != nil {
			c.failLocked(fmt.Errorf("transport: train manifest: %w", err))
			return false
		}
		c.manifest = m
		// Anything buffered past the now-known train end was a foreign
		// object (another train or carousel sharing the conn) accepted
		// before the manifest told us the length; release it.
		for i, chunk := range c.pending {
			if uint32(i) >= m.ChunkCount {
				chunk.Release()
				delete(c.pending, i)
			}
		}
		c.noteProgressLocked(events)
		c.checkCompleteLocked()
		return false
	}
	idx := int(id - c.cfg.BaseObjectID - 1) // sequential train IDs (mod 2^32)
	if idx >= maxTrainChunks {
		// IDs below the base wrap mod 2^32 to indexes near 2^32; no
		// real train is billions of chunks, so this is foreign traffic
		// (e.g. a carousel on the same group), not a reorder.
		return false
	}
	if c.manifest != nil && uint32(idx) >= c.manifest.ChunkCount {
		return false // not part of this train
	}
	if idx < c.next {
		return false // duplicate of an already-written chunk
	}
	if _, dup := c.pending[idx]; dup {
		return false
	}
	if idx > c.next && len(c.pending) >= c.cfg.MaxPending {
		c.failLocked(fmt.Errorf("transport: %d chunks completed out of order while chunk %d is missing (MaxPending %d)",
			len(c.pending), c.next, c.cfg.MaxPending))
		return false
	}
	c.pending[idx] = obj
	// Flush the contiguous prefix, returning each chunk's slab to the
	// pool as soon as its bytes are with the writer.
	for chunk, ok := c.pending[c.next]; ok; chunk, ok = c.pending[c.next] {
		delete(c.pending, c.next)
		err := c.writeChunkLocked(chunk)
		chunk.Release()
		if err != nil {
			c.failLocked(fmt.Errorf("transport: writing chunk %d: %w", c.next, err))
			return true
		}
		c.next++
		c.noteProgressLocked(events)
	}
	c.checkCompleteLocked()
	return true
}

// writeChunkLocked writes chunk c.next to the destination out of its
// slab, folding it into the stream CRC and the counters.
func (c *Collector) writeChunkLocked(chunk *session.Decoded) error {
	for seg := range chunk.Segments() {
		if _, err := c.dst.Write(seg); err != nil {
			return err
		}
		c.crc = crc32.Update(c.crc, crc32.IEEETable, seg)
	}
	n := int64(chunk.Len())
	c.written += n
	c.chunksWritten.Inc()
	c.bytesWritten.Add(uint64(n))
	if tr := c.cfg.Tracer; tr != nil {
		tr.Emit(obs.Event{
			Event:  obs.TraceWrite,
			Object: session.TrainChunkID(c.cfg.BaseObjectID, c.next),
			Chunk:  c.next,
			Bytes:  n,
		})
	}
	return nil
}

// checkCompleteLocked seals the collect once the manifest and every
// chunk have been written: length and stream CRC must match.
func (c *Collector) checkCompleteLocked() {
	m := c.manifest
	if m == nil || c.next < int(m.ChunkCount) {
		return
	}
	if uint64(c.written) != m.TotalSize {
		c.crcFailures.Inc()
		c.traceVerify("length")
		c.failLocked(fmt.Errorf("transport: train wrote %d bytes, manifest says %d", c.written, m.TotalSize))
		return
	}
	if c.crc != m.StreamCRC {
		c.crcFailures.Inc()
		c.traceVerify("crc")
		c.failLocked(fmt.Errorf("transport: stream CRC mismatch (got %08x, manifest %08x)", c.crc, m.StreamCRC))
		return
	}
	c.complete = true
	c.traceVerify("")
	if c.finish != nil {
		c.finish()
	}
}

// traceVerify records the end-of-train verification outcome against the
// manifest's object ID; failure names what mismatched ("length", "crc").
func (c *Collector) traceVerify(failure string) {
	tr := c.cfg.Tracer
	if tr == nil {
		return
	}
	tr.Emit(obs.Event{
		Event:  obs.TraceVerify,
		Object: c.cfg.BaseObjectID,
		Chunk:  c.next,
		Bytes:  c.written,
		Err:    failure,
	})
}

func (c *Collector) failLocked(err error) {
	c.err = err
	if c.finish != nil {
		c.finish()
	}
}

// noteProgressLocked queues one progress snapshot for delivery after
// the lock is released.
func (c *Collector) noteProgressLocked(events *[]CollectProgress) {
	if c.cfg.OnProgress != nil {
		*events = append(*events, c.progressLocked())
	}
}

func (c *Collector) progressLocked() CollectProgress {
	total := -1
	if c.manifest != nil {
		total = int(c.manifest.ChunkCount)
	}
	return CollectProgress{ChunksWritten: c.next, BytesWritten: c.written, ChunksTotal: total}
}

// Manifest returns the train manifest once it has decoded.
func (c *Collector) Manifest() (session.Manifest, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.manifest == nil {
		return session.Manifest{}, false
	}
	return *c.manifest, true
}

// Progress returns the current in-order progress snapshot.
func (c *Collector) Progress() CollectProgress {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.progressLocked()
}

// CollectorStats is a point-in-time snapshot of collect counters: the
// collector's own reassembly progress plus the underlying daemon's
// packet counters.
type CollectorStats struct {
	// Receiver holds the underlying ReceiverDaemon's counters.
	Receiver Stats
	// ChunksWritten and BytesWritten count the in-order prefix flushed
	// to the destination writer.
	ChunksWritten uint64
	BytesWritten  uint64
	// ChunksPending counts decoded chunks buffered out of order.
	ChunksPending uint64
	// CRCFailures counts trains that failed end-to-end length or CRC
	// verification.
	CRCFailures uint64
}

// CollectStats returns a snapshot of the collector's counters.
func (c *Collector) CollectStats() CollectorStats {
	c.mu.Lock()
	pending := uint64(len(c.pending))
	c.mu.Unlock()
	return CollectorStats{
		Receiver:      c.daemon.Stats(),
		ChunksWritten: c.chunksWritten.Load(),
		BytesWritten:  c.bytesWritten.Load(),
		ChunksPending: pending,
		CRCFailures:   c.crcFailures.Load(),
	}
}
