package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"fecperf/internal/obs"
	"fecperf/internal/session"
	"fecperf/internal/symbol"
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
	// (default 65536, a 64-byte table entry each). Past it the oldest
	// completions are forgotten entirely; should their datagrams still be
	// broadcast, those objects decode (and call OnComplete) again.
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
	// per ReadBatch call (default 16, clamped to 64): a burst drains in
	// one call, which on the UDP conn is at most one kernel crossing (a
	// GRO socket hands up a whole train per message, and a train longer
	// than the batch feeds the next call without a crossing). 1 reads
	// one datagram per call.
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
// per-ObjectID reassembly state and surfaces decoded objects. It keeps
// one table of objects, each entry in one of two lists: the in-flight LRU
// (bounded by MaxInFlight) while it reassembles, the completed FIFO
// (bounded by MaxCompletedIDs) once it has decoded.
//
// Run is the single ingest loop, which holds the lock for a read batch
// at a time; Stats, Object and WaitObject are safe from any goroutine,
// concurrently with Run.
type ReceiverDaemon struct {
	conn Conn
	cfg  ReceiverConfig

	// sink receives every decoded object still slab-resident, on the Run
	// goroutine and outside the daemon's locks, and owns it from then on:
	// retain, the store behind Object, WaitObject and OnComplete, unless a
	// Collector put its in-order writer here — the daemon then keeps no
	// bytes at all, only the completed IDs.
	sink    func(id uint32, obj *session.Decoded)
	scratch wire.Packet // parsed header of the datagram in hand (Run goroutine only)

	mu        sync.Mutex
	objects   map[uint32]*entry
	inFlight  entryList // front = most recently active
	completed entryList // front = most recently decoded
	// The completed entries from the front to oldestHeld, held of them,
	// retain their bytes; those behind have released them.
	oldestHeld *entry
	held       int
	waiters    map[uint32][]chan []byte

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

// NewReceiverDaemon returns a daemon reading from conn that retains
// decoded objects for Object, WaitObject and OnComplete.
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
		conn:    conn,
		cfg:     cfg,
		objects: make(map[uint32]*entry),
		waiters: make(map[uint32][]chan []byte),
	}
	d.sink = d.retain
	d.inFlight.init()
	d.completed.init()
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
			return int64(d.inFlight.len)
		})
		d.decodeHist = r.Histogram("receiver_decode_seconds", "First datagram of an object to its decode.",
			obs.DurationBuckets(), obs.SecondsUnit, nil)
		r.CounterFunc("receiver_read_batches_total", "ReadBatch calls the ingest loop made.", nil, d.readBatches.Load)
		d.readBatchSizes = r.Histogram("receiver_read_batch_size", "Datagrams handed up per ReadBatch call.", obs.ExpBuckets(1, 2, 7), 0, nil)
		r.GaugeFunc("receiver_gro_enabled", "1 when the conn's reads take coalesced trains from the kernel (UDP generic receive offload).", nil, func() int64 {
			if g, ok := conn.(interface{ GROEnabled() bool }); ok && g.GROEnabled() {
				return 1
			}
			return 0
		})
	}
	return d
}

// entry is one object in the table. While it reassembles, asm is set and
// the entry is linked in inFlight; once decoded, asm is nil — the entry
// only remembers the ID, for late-datagram discard — and it is linked in
// completed, with data set while the daemon retains the object's bytes
// and released set once MaxCompleted has dropped them.
type entry struct {
	id         uint32
	asm        *session.Reassembly
	data       []byte
	released   bool
	prev, next *entry // prev is nearer the list's front
}

// entryList is an intrusive doubly linked ring of entries around a
// sentinel: root.next is the front, root.prev the back.
type entryList struct {
	root entry
	len  int
}

func (l *entryList) init() { l.root.prev, l.root.next = &l.root, &l.root }

func (l *entryList) pushFront(e *entry) {
	e.prev, e.next = &l.root, l.root.next
	e.prev.next, e.next.prev = e, e
	l.len++
}

func (l *entryList) remove(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	l.len--
}

func (l *entryList) moveToFront(e *entry) { l.remove(e); l.pushFront(e) }

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
	// loop asks for ReadBatch datagrams per call, each into its own
	// slot of one backing buffer from the symbol pool, which goes back
	// when Run returns; the slots are re-armed to full width before
	// every call (ReadBatch re-slices what it fills).
	slot := d.cfg.MTU + 1
	backing := symbol.GetDirty(d.cfg.ReadBatch * slot)
	defer symbol.Put(backing)
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
		d.ingest(bufs[:filled])
	}
}

// ingest feeds one read batch to the objects its datagrams belong to,
// under one hold of d.mu, and counts what became of each. Payloads alias
// the read buffers; an object's payload decoder copies each once, to its
// final place in the object's slab, so the buffers are reusable on
// return. Steady-state ingest of an in-flight object allocates nothing.
//
// A datagram is matched to its object by its raw object-ID bytes: one
// of an object in flight is checked against the object's header
// (wire.DecodeLike), any other takes wire.DecodeTo. The datagram that
// completes an object lets go of the lock while the sink takes the
// object, before the next datagram is looked at.
func (d *ReceiverDaemon) ingest(batch []wire.Datagram) {
	var seen uint64
	for _, b := range batch {
		seen += uint64(len(b))
	}
	d.packetsSeen.Add(uint64(len(batch)))
	d.bytesSeen.Add(seen)
	p := &d.scratch
	d.mu.Lock()
	for _, datagram := range batch {
		if len(datagram) > d.cfg.MTU {
			d.discards[discardTruncated].Add(1)
			continue
		}
		var e *entry
		if len(datagram) >= wire.HeaderLen {
			e = d.objects[binary.BigEndian.Uint32(datagram[8:])]
		}
		var err error
		if e != nil && e.asm != nil {
			err = wire.DecodeLike(p, datagram, e.asm.Header())
		} else {
			err = wire.DecodeTo(p, datagram)
		}
		// The CRC proves the header arrived intact, not that its OTI is
		// honest: cap the announced object size BEFORE the decoder
		// constructor allocates for it.
		if err != nil || int64(p.N) > int64(d.cfg.MaxObjectPackets) {
			d.discards[discardBad].Add(1)
			continue
		}
		fresh := e == nil
		switch {
		case fresh:
			asm, err := session.OpenReassembly(p)
			if err != nil {
				d.discards[discardBad].Add(1) // bad OTI combination
				continue
			}
			e = &entry{id: p.ObjectID, asm: asm}
			d.objects[e.id] = e
			d.inFlight.pushFront(e)
		case e.asm == nil:
			d.discards[discardLate].Add(1)
			continue
		}
		res, obj, err := e.asm.Ingest(p)
		switch {
		case errors.Is(err, session.ErrCorrupt):
			// Every symbol is in and they hold no object: the reassembly
			// closed itself, and nothing of it may keep an in-flight slot.
			e.asm = nil
			d.dropLocked(e)
			d.discards[discardBad].Add(1)
			continue
		case err != nil:
			d.discards[discardInconsistent].Add(1)
			continue
		case res.Duplicate:
			d.inFlight.moveToFront(e)
			d.packetsDuplicate.Inc()
			continue
		}
		d.packetsIngested.Inc()
		if fresh {
			d.objectsStarted.Add(1)
		}
		if tr := d.cfg.Tracer; tr != nil && res.Packets == res.K && tr.Sampled(e.id) {
			tr.Emit(obs.Event{Event: obs.TraceKthRx, Object: e.id, K: res.K, Packets: res.Packets})
		}
		if obj == nil {
			d.inFlight.moveToFront(e)
			// Evict only AFTER a new object successfully opened state, so
			// unopenable datagrams cannot churn live reassembly progress.
			if fresh && d.inFlight.len > d.cfg.MaxInFlight {
				d.dropLocked(d.inFlight.root.prev)
				d.objectsEvicted.Add(1)
			}
			continue
		}
		// Decoded: the entry moves to the completed FIFO, which forgets
		// its oldest ID past MaxCompletedIDs.
		d.inFlight.remove(e)
		e.asm = nil
		d.completed.pushFront(e)
		if d.completed.len > d.cfg.MaxCompletedIDs {
			old := d.completed.root.prev
			if old == d.oldestHeld { // only when the two bounds are equal
				d.oldestHeld = old.prev
				d.held--
			}
			d.completed.remove(old)
			delete(d.objects, old.id)
		}
		d.mu.Unlock()
		d.objectsDecoded.Add(1)
		d.decodeHist.Observe(res.DecodeNS)
		if tr := d.cfg.Tracer; tr != nil {
			tr.Emit(obs.Event{
				Event:   obs.TraceDecode,
				Object:  e.id,
				K:       res.K,
				Packets: res.Packets,
				Bytes:   int64(obj.Len()),
				NS:      res.DecodeNS,
			})
		}
		d.sink(e.id, obj)
		d.mu.Lock()
	}
	d.mu.Unlock()
}

// retain is the default sink: it copies the object out of its slab into
// memory of its own — holders of Object/WaitObject/OnComplete data keep
// it for as long as they like — keeps the copy on the object's entry
// until MaxCompleted newer objects have decoded, wakes the object's
// waiters and calls OnComplete. The object's entry is the completed
// list's front: ingest put it there and let go of the lock only to call
// the sink, on this goroutine, before it looks at the next datagram.
func (d *ReceiverDaemon) retain(id uint32, obj *session.Decoded) {
	data := obj.Bytes()
	d.mu.Lock()
	e := d.completed.root.next
	e.data = data
	if d.held == 0 {
		d.oldestHeld = e
	}
	if d.held++; d.held > d.cfg.MaxCompleted {
		old := d.oldestHeld
		old.data, old.released = nil, true
		d.oldestHeld = old.prev
		d.held--
	}
	waiters := d.waiters[id]
	delete(d.waiters, id)
	d.mu.Unlock()
	for _, w := range waiters {
		w <- data
	}
	if d.cfg.OnComplete != nil {
		d.cfg.OnComplete(id, data)
	}
}

// dropLocked forgets an in-flight object and closes its reassembly, if
// still open; it starts over if its datagrams keep arriving.
func (d *ReceiverDaemon) dropLocked(e *entry) {
	if e.asm != nil {
		e.asm.Close()
		e.asm = nil
	}
	d.inFlight.remove(e)
	delete(d.objects, e.id)
}

// forgetInFlight drops every partly reassembled object: for an owner that
// is done with the daemon once Run has returned (a standalone daemon keeps
// its partial objects, so a second Run can finish them).
func (d *ReceiverDaemon) forgetInFlight() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.inFlight.len > 0 {
		d.dropLocked(d.inFlight.root.prev)
	}
}

// Object returns a decoded object's bytes, if still retained.
func (d *ReceiverDaemon) Object(id uint32) ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e := d.objects[id]; e != nil && e.data != nil {
		return e.data, true
	}
	return nil, false
}

// Completed reports whether the object has been decoded, even if its
// bytes have since been released by the MaxCompleted bound.
func (d *ReceiverDaemon) Completed(id uint32) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.objects[id]
	return e != nil && e.asm == nil
}

// WaitObject blocks until the object decodes or ctx is done. It returns
// immediately when the object already decoded and its bytes are still
// retained; an object decoded and already released returns an error.
func (d *ReceiverDaemon) WaitObject(ctx context.Context, id uint32) ([]byte, error) {
	d.mu.Lock()
	if e := d.objects[id]; e != nil && e.data != nil {
		d.mu.Unlock()
		return e.data, nil
	} else if e != nil && e.released {
		d.mu.Unlock()
		return nil, errors.New("transport: object decoded but no longer retained")
	}
	// Not decoded yet, or decoded this instant and on its way to retain.
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
