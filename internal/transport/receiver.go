package transport

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"

	"fecperf/internal/obs"
	"fecperf/internal/session"
	"fecperf/internal/wire"
)

// ReceiverConfig tunes the daemon.
type ReceiverConfig struct {
	// MaxInFlight bounds how many partially-reassembled objects are held
	// at once (default 64). Beyond it the least-recently-active object
	// is evicted — its datagrams keep arriving on the carousel, so it
	// simply starts over if it becomes active again.
	MaxInFlight int
	// MaxCompleted bounds how many decoded objects are retained for
	// Object/WaitObject (default 16). Evicted objects remain remembered
	// as completed (their late datagrams are discarded cheaply) but
	// their bytes are released.
	MaxCompleted int
	// MaxCompletedIDs bounds the set of remembered completed object IDs
	// (default 65536, ~4 bytes each). Past it the oldest completions are
	// forgotten entirely; should their datagrams still be broadcast,
	// those objects decode (and call OnComplete) again.
	MaxCompletedIDs int
	// MaxObjectPackets bounds the N (total packet count) a datagram's
	// OTI may announce (default 262144, comfortably above the paper's
	// largest blocks). The header CRC only proves integrity, not
	// honesty: without this cap a single forged datagram could make the
	// decoder constructor allocate for a billion-packet object.
	MaxObjectPackets int
	// MTU sizes the read buffer (default 2048; must exceed header +
	// symbol size or datagrams are truncated and discarded).
	MTU int
	// ReadBatch is how many datagrams the ingest loop asks the conn for
	// per read crossing (default 16, clamped to 64): a burst drains
	// recvmmsg-style — one kernel crossing for the whole batch. 1 reads
	// one datagram per crossing.
	ReadBatch int
	// OnComplete, when set, is called — outside the daemon's locks, on
	// the Run goroutine — each time an object decodes.
	OnComplete func(id uint32, data []byte)
	// Metrics, when set, exposes the daemon's counters on the registry
	// (receiver_* series, including a decode-latency histogram and an
	// in-flight-objects gauge).
	Metrics *obs.Registry
	// Tracer, when set, records kth_rx and decode lifecycle events for
	// sampled objects.
	Tracer *obs.Tracer
}

// Discard reasons distinguish why datagrams were not ingested; Stats
// reports a counter per reason.
const (
	discardBad          = iota // malformed: bad magic/version/checksum/geometry
	discardLate                // object already completed
	discardInconsistent        // OTI disagrees with the object's reassembly state
	discardTruncated           // datagram larger than MTU (read was cut short)
	discardReasons
)

// Stats is a point-in-time snapshot of receiver counters.
type Stats struct {
	// PacketsSeen counts every datagram read off the Conn.
	PacketsSeen uint64
	// BytesSeen counts the datagram bytes read off the Conn.
	BytesSeen uint64
	// PacketsIngested counts datagrams accepted into reassembly.
	PacketsIngested uint64
	// PacketsBad counts malformed datagrams (wire.Decode failures).
	PacketsBad uint64
	// PacketsLate counts datagrams for already-completed objects — on a
	// carousel this is the steady state after decoding.
	PacketsLate uint64
	// PacketsInconsistent counts datagrams whose OTI contradicted an
	// in-flight object's state.
	PacketsInconsistent uint64
	// PacketsTruncated counts datagrams larger than MTU, whose reads
	// were cut short by the buffer — the telltale of a sender using a
	// bigger symbol size than the receiver's MTU allows.
	PacketsTruncated uint64
	// PacketsDuplicate counts datagrams whose packet ID was already held
	// for an in-flight object — expected on a carousel, where every
	// round replays the same IDs.
	PacketsDuplicate uint64
	// ObjectsStarted counts objects that opened reassembly state.
	ObjectsStarted uint64
	// ObjectsDecoded counts fully reconstructed objects.
	ObjectsDecoded uint64
	// ObjectsEvicted counts in-flight objects dropped by the
	// MaxInFlight LRU bound.
	ObjectsEvicted uint64
}

// ReceiverDaemon drains a Conn, demultiplexes datagrams into
// per-ObjectID reassembly state and surfaces decoded objects. Memory is
// bounded on both sides of completion: partial objects by an LRU of
// MaxInFlight, decoded bytes by an LRU of MaxCompleted.
//
// Run is the single ingest loop; Stats, Object and WaitObject are safe
// from any goroutine, concurrently with Run.
type ReceiverDaemon struct {
	conn Conn
	cfg  ReceiverConfig

	// takeDecoded, when set (by the Collector that owns this daemon),
	// receives every decoded object still slab-resident, on the Run
	// goroutine and outside the daemon's locks, and owns it from then on.
	// The daemon then keeps no bytes at all — only the completed IDs —
	// and OnComplete, Object and WaitObject have nothing to serve.
	takeDecoded func(id uint32, obj *session.Decoded)
	scratch     wire.Packet // parsed header of the datagram in hand (Run goroutine only)

	mu       sync.Mutex
	rx       *session.Receiver
	lru      *list.List               // of uint32 (object IDs), front = most recent
	lruIndex map[uint32]*list.Element // in-flight objects only
	// Completions are remembered in FIFO order at two depths: byteRing
	// bounds how many decoded objects keep their bytes (done), idRing
	// bounds how many are remembered at all (doneIDs). An ID re-enters
	// the rings only after idRing has forgotten it, so each holds any
	// ID at most once.
	done     map[uint32][]byte   // decoded objects still holding bytes
	doneIDs  map[uint32]struct{} // every remembered decoded ID, bytes or not
	byteRing ring
	idRing   ring
	waiters  map[uint32][]chan []byte

	packetsSeen      obs.Counter
	bytesSeen        obs.Counter
	packetsIngested  obs.Counter
	packetsDuplicate obs.Counter
	discards         [discardReasons]obs.Counter
	objectsStarted   obs.Counter
	objectsDecoded   obs.Counter
	objectsEvicted   obs.Counter
	readBatches      obs.Counter
	decodeHist       *obs.Histogram // nil unless Metrics is set
	readBatchSizes   *obs.Histogram // nil unless Metrics is set
}

// NewReceiverDaemon returns a daemon reading from conn.
func NewReceiverDaemon(conn Conn, cfg ReceiverConfig) *ReceiverDaemon {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.MaxCompleted <= 0 {
		cfg.MaxCompleted = 16
	}
	if cfg.MTU <= 0 {
		cfg.MTU = 2048
	}
	if cfg.MaxObjectPackets <= 0 {
		cfg.MaxObjectPackets = 262144
	}
	if cfg.MaxCompletedIDs <= 0 {
		cfg.MaxCompletedIDs = 65536
	}
	if cfg.MaxCompletedIDs < cfg.MaxCompleted {
		cfg.MaxCompletedIDs = cfg.MaxCompleted
	}
	if cfg.ReadBatch <= 0 {
		cfg.ReadBatch = 16
	}
	if cfg.ReadBatch > maxSendBatch {
		cfg.ReadBatch = maxSendBatch
	}
	d := &ReceiverDaemon{
		conn:     conn,
		cfg:      cfg,
		rx:       session.NewReceiver(),
		lru:      list.New(),
		lruIndex: make(map[uint32]*list.Element),
		done:     make(map[uint32][]byte),
		doneIDs:  make(map[uint32]struct{}),
		byteRing: ring{cap: cfg.MaxCompleted},
		idRing:   ring{cap: cfg.MaxCompletedIDs},
		waiters:  make(map[uint32][]chan []byte),
	}
	if r := cfg.Metrics; r != nil {
		r.CounterFunc("receiver_packets_total", "Datagrams read off the conn.", nil, d.packetsSeen.Load)
		r.CounterFunc("receiver_bytes_total", "Datagram bytes read off the conn.", nil, d.bytesSeen.Load)
		r.CounterFunc("receiver_packets_ingested_total", "Datagrams accepted into reassembly.", nil, d.packetsIngested.Load)
		r.CounterFunc("receiver_packets_duplicate_total", "Datagrams repeating an already-held packet ID.", nil, d.packetsDuplicate.Load)
		for reason, name := range map[int]string{
			discardBad:          "bad",
			discardLate:         "late",
			discardInconsistent: "inconsistent",
			discardTruncated:    "truncated",
		} {
			r.CounterFunc("receiver_packets_dropped_total", "Datagrams not ingested, by reason.",
				obs.L("reason", name), d.discards[reason].Load)
		}
		r.CounterFunc("receiver_objects_started_total", "Objects that opened reassembly state.", nil, d.objectsStarted.Load)
		r.CounterFunc("receiver_objects_decoded_total", "Fully reconstructed objects.", nil, d.objectsDecoded.Load)
		r.CounterFunc("receiver_objects_evicted_total", "In-flight objects dropped by the LRU bound.", nil, d.objectsEvicted.Load)
		r.GaugeFunc("receiver_inflight_objects", "Objects mid-reassembly.", nil, func() int64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return int64(len(d.lruIndex))
		})
		d.decodeHist = r.Histogram("receiver_decode_seconds", "First datagram of an object to its decode.",
			obs.DurationBuckets(), obs.SecondsUnit, nil)
		r.CounterFunc("receiver_read_batches_total", "Read crossings the ingest loop issued.", nil, d.readBatches.Load)
		d.readBatchSizes = r.Histogram("receiver_read_batch_size", "Datagrams per read crossing.", obs.ExpBuckets(1, 2, 7), 0, nil)
	}
	return d
}

// ring is a fixed-capacity FIFO of object IDs: push returns the evicted
// ID (and true) once the ring is full.
type ring struct {
	cap  int
	ids  []uint32
	next int
}

func (r *ring) push(id uint32) (evicted uint32, full bool) {
	if len(r.ids) < r.cap {
		r.ids = append(r.ids, id)
		return 0, false
	}
	evicted = r.ids[r.next]
	r.ids[r.next] = id
	r.next = (r.next + 1) % len(r.ids)
	return evicted, true
}

// Run reads datagrams until ctx is cancelled or the Conn is closed. It
// returns nil on a clean Conn close, ctx.Err() on cancellation, and the
// read error otherwise.
func (d *ReceiverDaemon) Run(ctx context.Context) error {
	// Cancellation must unblock a pending Recv: arm an immediate read
	// deadline when ctx fires and classify the resulting timeout below.
	stop := context.AfterFunc(ctx, func() {
		d.conn.SetReadDeadline(time.Unix(1, 0)) //nolint:errcheck
	})
	defer stop()
	// One spare byte past MTU: a read that fills it proves the datagram
	// was larger than MTU and therefore cut short (UDP truncation is
	// otherwise silent), which would fail the CRC and masquerade as
	// corruption instead of pointing at the MTU mismatch. The ingest
	// loop reads ReadBatch datagrams per crossing, each into its own
	// slot of one backing allocation; the slots are re-armed to full
	// width before every crossing (ReadBatch re-slices what it fills).
	slot := d.cfg.MTU + 1
	backing := make([]byte, d.cfg.ReadBatch*slot)
	bufs := make([]wire.Datagram, d.cfg.ReadBatch)
	for {
		for i := range bufs {
			bufs[i] = backing[i*slot : (i+1)*slot : (i+1)*slot]
		}
		filled, err := d.conn.ReadBatch(bufs)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if isTimeout(err) {
				continue // stale deadline from a previous arm; keep serving
			}
			if errors.Is(err, ErrClosed) {
				return nil
			}
			return err
		}
		d.readBatches.Inc()
		d.readBatchSizes.Observe(int64(filled))
		for i := 0; i < filled; i++ {
			b := bufs[i]
			if len(b) > d.cfg.MTU {
				d.packetsSeen.Add(1)
				d.bytesSeen.Add(uint64(len(b)))
				d.discards[discardTruncated].Add(1)
				continue
			}
			d.handle(b)
		}
	}
}

// handle ingests one datagram. The payload aliases the read buffer; the
// session receiver's payload decoder copies it once, to its final place
// in the object's slab, so the buffer is reusable on return. Steady-state
// ingest of an in-flight object allocates nothing.
func (d *ReceiverDaemon) handle(datagram []byte) {
	d.packetsSeen.Add(1)
	d.bytesSeen.Add(uint64(len(datagram)))
	p := &d.scratch
	if err := wire.DecodeTo(p, datagram); err != nil {
		d.discards[discardBad].Add(1)
		return
	}
	// The CRC proves the header arrived intact, not that its OTI is
	// honest: cap the announced object size BEFORE the decoder
	// constructor allocates for it.
	if int64(p.N) > int64(d.cfg.MaxObjectPackets) {
		d.discards[discardBad].Add(1)
		return
	}

	d.mu.Lock()
	if _, completed := d.doneIDs[p.ObjectID]; completed {
		d.mu.Unlock()
		d.discards[discardLate].Add(1)
		return
	}
	_, inFlight := d.lruIndex[p.ObjectID]
	res, err := d.rx.IngestPacketEx(p)
	id, complete := res.ObjectID, res.Complete
	if err != nil {
		if !inFlight {
			// The packet may have opened session state before failing;
			// drop it so nothing lives outside the LRU bound.
			d.rx.Forget(p.ObjectID)
		}
		d.mu.Unlock()
		if inFlight {
			d.discards[discardInconsistent].Add(1)
		} else {
			// Failed to even open state (bad OTI combination).
			d.discards[discardBad].Add(1)
		}
		return
	}
	if res.Duplicate {
		d.packetsDuplicate.Inc()
		if inFlight {
			d.lru.MoveToFront(d.lruIndex[id])
		}
		d.mu.Unlock()
		return
	}
	d.packetsIngested.Inc()
	if tr := d.cfg.Tracer; tr != nil && res.Packets == res.K && tr.Sampled(id) {
		tr.Emit(obs.Event{Event: obs.TraceKthRx, Object: id, K: res.K, Packets: res.Packets})
	}
	if !inFlight && !complete {
		d.objectsStarted.Add(1)
		d.lruIndex[id] = d.lru.PushFront(id)
		// Evict only AFTER a new object successfully opened state, so
		// unopenable datagrams cannot churn live reassembly progress.
		if len(d.lruIndex) > d.cfg.MaxInFlight {
			d.evictOldestLocked()
		}
		d.mu.Unlock()
		return
	}
	if !complete {
		d.lru.MoveToFront(d.lruIndex[id])
		d.mu.Unlock()
		return
	}
	// Object decoded: retire its in-flight entry and take the object off
	// the session receiver. An owner that streams objects gets it as it
	// is, in the decoder's slab; otherwise the bytes are copied out into
	// memory of their own — holders of Object/WaitObject/OnComplete data
	// keep it for as long as they like — and retained under the
	// completed LRU bound.
	if !inFlight {
		d.objectsStarted.Add(1) // single-datagram object
	} else {
		d.lru.Remove(d.lruIndex[id])
		delete(d.lruIndex, id)
	}
	obj, _ := d.rx.Take(id)
	var data []byte
	if d.takeDecoded == nil {
		data = obj.Bytes()
	}
	d.rememberCompletedLocked(id, data)
	waiters := d.waiters[id]
	delete(d.waiters, id)
	d.mu.Unlock()

	d.objectsDecoded.Add(1)
	d.decodeHist.Observe(res.DecodeNS)
	if tr := d.cfg.Tracer; tr != nil {
		tr.Emit(obs.Event{
			Event:   obs.TraceDecode,
			Object:  id,
			K:       res.K,
			Packets: res.Packets,
			Bytes:   int64(obj.Len()),
			NS:      res.DecodeNS,
		})
	}
	if d.takeDecoded != nil {
		d.takeDecoded(id, obj)
		return
	}
	for _, w := range waiters {
		w <- data
	}
	if d.cfg.OnComplete != nil {
		d.cfg.OnComplete(id, data)
	}
}

// rememberCompletedLocked records a decoded object: bytes under the
// MaxCompleted FIFO (unless a takeDecoded owner consumes them, in which
// case the daemon retains none), the bare ID under the MaxCompletedIDs
// FIFO. Both rings see completions in the same order and byteRing is
// never deeper, so an ID's bytes are always released no later than the
// ID itself.
func (d *ReceiverDaemon) rememberCompletedLocked(id uint32, data []byte) {
	if d.takeDecoded == nil {
		d.done[id] = data
		if old, full := d.byteRing.push(id); full {
			delete(d.done, old)
		}
	}
	d.doneIDs[id] = struct{}{}
	if old, full := d.idRing.push(id); full {
		delete(d.doneIDs, old)
		delete(d.done, old) // no-op unless the rings are equally deep
	}
}

// evictOldestLocked drops the least-recently-active in-flight object.
func (d *ReceiverDaemon) evictOldestLocked() {
	back := d.lru.Back()
	if back == nil {
		return
	}
	id := d.lru.Remove(back).(uint32)
	delete(d.lruIndex, id)
	d.rx.Forget(id)
	d.objectsEvicted.Add(1)
}

// forgetInFlight drops every partly reassembled object and returns its
// slabs to the symbol pool: for an owner that is done with the daemon once
// Run has returned (a standalone daemon keeps its partial objects, so a
// second Run can finish them).
func (d *ReceiverDaemon) forgetInFlight() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, id := range d.rx.InFlight() {
		d.rx.Forget(id)
	}
	d.lru.Init()
	clear(d.lruIndex)
}

// Object returns a decoded object's bytes, if still retained.
func (d *ReceiverDaemon) Object(id uint32) ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	data, ok := d.done[id]
	return data, ok
}

// Completed reports whether the object has been decoded, even if its
// bytes have since been released by the MaxCompleted bound.
func (d *ReceiverDaemon) Completed(id uint32) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.doneIDs[id]
	return ok
}

// WaitObject blocks until the object decodes or ctx is done. It returns
// immediately when the object already decoded and its bytes are still
// retained; an object decoded and already released returns an error.
func (d *ReceiverDaemon) WaitObject(ctx context.Context, id uint32) ([]byte, error) {
	d.mu.Lock()
	if data, ok := d.done[id]; ok {
		d.mu.Unlock()
		return data, nil
	}
	if _, ok := d.doneIDs[id]; ok {
		d.mu.Unlock()
		return nil, errors.New("transport: object decoded but no longer retained")
	}
	ch := make(chan []byte, 1)
	d.waiters[id] = append(d.waiters[id], ch)
	d.mu.Unlock()
	select {
	case data := <-ch:
		return data, nil
	case <-ctx.Done():
		d.dropWaiter(id, ch)
		return nil, ctx.Err()
	}
}

func (d *ReceiverDaemon) dropWaiter(id uint32, ch chan []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ws := d.waiters[id]
	for i, w := range ws {
		if w == ch {
			ws = append(ws[:i], ws[i+1:]...)
			if len(ws) == 0 {
				delete(d.waiters, id) // don't leak entries for IDs that never decode
			} else {
				d.waiters[id] = ws
			}
			return
		}
	}
}

// Stats returns a snapshot of the daemon's counters.
func (d *ReceiverDaemon) Stats() Stats {
	return Stats{
		PacketsSeen:         d.packetsSeen.Load(),
		BytesSeen:           d.bytesSeen.Load(),
		PacketsIngested:     d.packetsIngested.Load(),
		PacketsBad:          d.discards[discardBad].Load(),
		PacketsLate:         d.discards[discardLate].Load(),
		PacketsInconsistent: d.discards[discardInconsistent].Load(),
		PacketsTruncated:    d.discards[discardTruncated].Load(),
		PacketsDuplicate:    d.packetsDuplicate.Load(),
		ObjectsStarted:      d.objectsStarted.Load(),
		ObjectsDecoded:      d.objectsDecoded.Load(),
		ObjectsEvicted:      d.objectsEvicted.Load(),
	}
}
