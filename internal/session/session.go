// Package session implements a minimal FLUTE-like unidirectional object
// delivery session on top of the wire format: a sender FEC-encodes a byte
// object, schedules its packets with one of the paper's transmission
// models and emits self-describing datagrams; a receiver reconstructs
// objects from whatever subset of datagrams arrives, in any order, with
// no feedback channel.
//
// This is the deployment context the paper optimises (Section 1:
// FLUTE/ALC content broadcasting), reduced to its essence: every datagram
// carries the FEC Object Transmission Information needed to bootstrap a
// decoder, so receivers may join at any time.
package session

import (
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"sync/atomic"
	"time"

	"fecperf/internal/codes"
	"fecperf/internal/core"
	"fecperf/internal/obs"
	"fecperf/internal/sched"
	"fecperf/internal/symbol"
	"fecperf/internal/wire"
)

// instruments is the package's optional metrics view: codec timing
// histograms shared by every session in the process. A nil pointer (the
// default) costs one atomic load per encode/decode.
type instruments struct {
	encodeNS *obs.Histogram
	decodeNS *obs.Histogram
}

var instr atomic.Pointer[instruments]

// Instrument exposes session codec timings on r: per-object FEC encode
// and decode wall time as histograms (session_encode_seconds,
// session_decode_seconds). Pass nil to detach. The sessions themselves
// are unchanged; timing is only collected while a registry is attached.
func Instrument(r *obs.Registry) {
	if r == nil {
		instr.Store(nil)
		return
	}
	instr.Store(&instruments{
		encodeNS: r.Histogram("session_encode_seconds", "Per-object FEC encode wall time.", obs.DurationBuckets(), obs.SecondsUnit, nil),
		decodeNS: r.Histogram("session_decode_seconds", "First datagram to decoded object.", obs.DurationBuckets(), obs.SecondsUnit, nil),
	})
}

// lengthPrefix is prepended to the object so the receiver can strip the
// padding added to fill the last symbol.
const lengthPrefix = 8

// SenderConfig configures EncodeObject / Send.
type SenderConfig struct {
	// ObjectID tags every datagram of this object.
	ObjectID uint32
	// Family selects the FEC code.
	Family wire.CodeFamily
	// Ratio is the FEC expansion ratio n/k (e.g. 1.5).
	Ratio float64
	// PayloadSize is the symbol size in bytes (e.g. 1024).
	PayloadSize int
	// Seed fixes the LDGM construction; it travels in every datagram.
	Seed int64
	// Scheduler orders the transmission (nil = Tx_model_4, the paper's
	// recommendation for unknown channels).
	Scheduler core.Scheduler
	// NSent truncates the transmission (0 = send everything).
	NSent int
}

// Object is an encoded object ready for transmission: one slab holding a
// ready-to-send datagram (header ++ payload) per packet ID. The frames
// are laid out, stamped and checksummed once, by EncodeObject; sending
// packet id is handing Frame(id) to the conn.
type Object struct {
	cfg    SenderConfig
	code   core.Codec
	frames symbol.Slab // slot id = the datagram for packet id
	closed bool
}

// EncodeObject splits data into symbols, FEC-encodes it and returns the
// transmissible object. The object length is embedded so the receiver can
// strip end-of-object padding. Each source byte is copied once, from data
// into the payload half of its frame, and the codec writes parity straight
// into the parity frames; the frames live in one pooled slab, so call
// Close when the object will not be transmitted again.
func EncodeObject(data []byte, cfg SenderConfig) (*Object, error) {
	return EncodeSegments([][]byte{data}, cfg)
}

// EncodeSegments is EncodeObject of the object segs holds back to back
// (some may be empty), for a caller that read it into several buffers.
func EncodeSegments(segs [][]byte, cfg SenderConfig) (*Object, error) {
	if cfg.PayloadSize <= 0 {
		return nil, fmt.Errorf("session: payload size must be positive, got %d", cfg.PayloadSize)
	}
	size := 0
	for _, seg := range segs {
		size += len(seg)
	}
	if size == 0 {
		return nil, fmt.Errorf("session: empty object")
	}
	in := instr.Load()
	var start time.Time
	if in != nil {
		start = time.Now()
	}
	// Geometries repeat across objects, so this is a cache hit on every
	// object but the first — and the instance OpenReassembly gets for
	// the same header.
	k := (lengthPrefix + size + cfg.PayloadSize - 1) / cfg.PayloadSize
	n, err := codes.N(cfg.Family, k, cfg.Ratio)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	code, err := codes.CachedForWire(cfg.Family, k, n, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}

	// Lay out the n frames and stamp their headers; payloads[id] is the
	// payload half of frame id, which the scatter and the codec fill in.
	// Frame 0's header is validated and checksummed once; every other
	// frame copies it and rewrites the packet ID, checksum included, in
	// four table lookups.
	o := &Object{cfg: cfg, code: code, frames: symbol.NewSlab(n, wire.HeaderLen+cfg.PayloadSize)}
	views := payloadViews.Get(n)
	defer payloadViews.Put(views)
	payloads := *views
	f0 := o.frames.Draw(0)
	payloads[0] = f0[wire.HeaderLen:]
	hdr := wire.Packet{Family: cfg.Family, ObjectID: cfg.ObjectID, K: uint32(k), N: uint32(n), Seed: cfg.Seed, Payload: payloads[0]}
	if err := hdr.PutHeader(f0); err != nil {
		o.Close()
		return nil, fmt.Errorf("session: %w", err)
	}
	for id := 1; id < n; id++ {
		f := o.frames.Draw(id)
		copy(f, f0[:wire.HeaderLen])
		wire.SetPacketID(f, uint32(id))
		payloads[id] = f[wire.HeaderLen:]
	}

	// Scatter the virtual stream (length prefix ++ segs) into the source
	// payloads — no contiguous staging copy. Slab memory is not zeroed,
	// so the final symbol's padding is cleared here.
	var pre [lengthPrefix]byte
	binary.BigEndian.PutUint64(pre[:], uint64(size))
	seg := pre[:]
	for _, s := range payloads[:k] {
		for len(s) > 0 && len(seg)+len(segs) > 0 {
			if len(seg) == 0 {
				seg, segs = segs[0], segs[1:]
			}
			c := copy(s, seg)
			s, seg = s[c:], seg[c:]
		}
		clear(s)
	}

	if err := code.EncodeInto(payloads[:k], payloads[k:]); err != nil {
		o.Close()
		return nil, fmt.Errorf("session: %w", err)
	}
	if in != nil {
		in.encodeNS.Observe(time.Since(start).Nanoseconds())
	}
	return o, nil
}

// payloadViews recycles EncodeObject's payload view table.
var payloadViews symbol.ViewPool

// Close returns the object's frame slab to the pool. The object cannot be
// transmitted afterwards and every view Frame handed out is dead; Close
// is idempotent.
func (o *Object) Close() {
	if o.closed {
		return
	}
	o.closed = true
	o.frames.Release()
}

// K returns the number of source symbols.
func (o *Object) K() int { return o.code.Layout().K }

// N returns the total number of symbols.
func (o *Object) N() int { return o.code.Layout().N }

// ObjectID returns the identifier stamped on every datagram.
func (o *Object) ObjectID() uint32 { return o.cfg.ObjectID }

// Layout returns the packet layout of the encoded object, which a
// transmission scheduler turns into a packet order.
func (o *Object) Layout() core.Layout { return o.code.Layout() }

// Scheduler returns the configured transmission model (nil means the
// caller should fall back to Tx_model_4).
func (o *Object) Scheduler() core.Scheduler { return o.cfg.Scheduler }

// NSent returns the configured per-pass transmission truncation
// (0 = send everything), the Section-6 n_sent optimisation.
func (o *Object) NSent() int { return o.cfg.NSent }

// Frame returns the datagram for packet id as a view into the object's
// slab — what the transport hands to the conn, with no copy in between.
// The view is read-only and valid until Close.
func (o *Object) Frame(id int) ([]byte, error) {
	if o.closed {
		return nil, fmt.Errorf("session: object %d is closed", o.cfg.ObjectID)
	}
	if id < 0 || id >= o.frames.Slots() {
		return nil, fmt.Errorf("session: packet id %d outside [0,%d)", id, o.frames.Slots())
	}
	return o.frames.Slot(id), nil
}

// Datagram returns a fresh copy of the datagram for packet id.
func (o *Object) Datagram(id int) ([]byte, error) {
	return o.AppendDatagram(id, nil)
}

// AppendDatagram appends a copy of the datagram for packet id to dst and
// returns the result, for callers that need the bytes beyond Close.
func (o *Object) AppendDatagram(id int, dst []byte) ([]byte, error) {
	f, err := o.Frame(id)
	if err != nil {
		return nil, err
	}
	return append(dst, f...), nil
}

// Schedule draws one transmission order for the object — the configured
// scheduler (default Tx_model_4) over the object's layout, truncated to
// the configured NSent. The schedule is streaming: O(1) memory, any
// position evaluable directly, so senders iterate it without ever
// materialising the order.
func (o *Object) Schedule(rng *rand.Rand) core.Schedule {
	s := o.cfg.Scheduler
	if s == nil {
		s = sched.TxModel4{}
	}
	return s.Schedule(o.code.Layout(), rng).Truncate(o.cfg.NSent)
}

// Send schedules the object's packets and hands each datagram to emit, in
// transmission order. emit returning an error aborts the transmission.
// Each datagram is freshly allocated; emit may retain it.
func (o *Object) Send(rng *rand.Rand, emit func([]byte) error) error {
	schedule := o.Schedule(rng)
	cur := schedule.Cursor()
	for {
		id, ok := cur.Next()
		if !ok {
			return nil
		}
		d, err := o.Datagram(id)
		if err != nil {
			return err
		}
		if err := emit(d); err != nil {
			return err
		}
	}
}

// Receiver reconstructs objects from datagrams. One receiver can track
// any number of interleaved objects (an ALC session may multiplex them):
// it is an unbounded map from object ID to Reassembly, plus the decoded
// objects nobody has claimed yet.
type Receiver struct {
	objects map[uint32]*Reassembly
	done    map[uint32]*Decoded
	scratch wire.Packet // header scratch reused by Ingest
}

// Reassembly is one object's receive-side state, from the datagram that
// opened it to its decode: the header whose OTI every later datagram must
// repeat, the payload decoder and its slabs, and a bitmap of the packet
// IDs seen.
type Reassembly struct {
	hdr     [wire.HeaderLen]byte // the opening datagram's, as PutHeader lays it out
	dec     core.PayloadDecoder
	packets int
	seen    []uint64  // bitmap over packet IDs: duplicate detection
	start   time.Time // first datagram arrival, for decode latency
}

// ErrCorrupt marks an object whose symbols all arrived and hold no object:
// the length prefix announces more bytes than they carry.
var ErrCorrupt = errors.New("session: corrupt object")

// Decoded is a reconstructed object whose bytes still sit where the
// decoder put them: in the source slab, behind the length prefix. Nothing
// was copied to produce it. A consumer that streams the object (the
// transport Collector) ranges over Segments and then Releases the slab
// for the next object; one that needs a plain slice calls Bytes.
type Decoded struct {
	slab   symbol.Slab
	off, n int    // the object is bytes [off, off+n) of the slab's slot stream
	flat   []byte // set by Bytes, after which the slab is gone
}

// Len returns the object's length in bytes.
func (d *Decoded) Len() int { return d.n }

// Segments yields the object's bytes in order as a few contiguous runs
// (one per slab buffer). The runs are views: read-only, dead after
// Release.
func (d *Decoded) Segments() iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		if d.flat != nil {
			yield(d.flat)
			return
		}
		for seg := range d.slab.Segments(d.off, d.n) {
			if !yield(seg) {
				return
			}
		}
	}
}

// Bytes returns the object as one slice the caller may keep forever: the
// first call copies it out of the slab into fresh memory and releases the
// slab; later calls return the same slice.
func (d *Decoded) Bytes() []byte {
	if d.flat == nil {
		flat := make([]byte, 0, d.n)
		for seg := range d.slab.Segments(d.off, d.n) {
			flat = append(flat, seg...)
		}
		d.flat = flat
		d.slab.Release()
	}
	return d.flat
}

// Release returns the slab to the pool. Segments views are dead
// afterwards; a slice obtained from Bytes is not affected. Release is
// idempotent.
func (d *Decoded) Release() { d.slab.Release() }

// NewReceiver returns an empty receiver. The reassembly maps are
// pre-sized for a typical multiplexed session so steady-state ingest
// never grows them.
func NewReceiver() *Receiver {
	return &Receiver{
		objects: make(map[uint32]*Reassembly, 8),
		done:    make(map[uint32]*Decoded, 8),
	}
}

// Ingest processes one datagram. It returns (objectID, true, data) when
// this datagram completed an object. Datagrams for already-completed
// objects are ignored. Malformed datagrams return an error and are
// otherwise harmless. The datagram may sit in a reused read buffer.
func (r *Receiver) Ingest(datagram []byte) (objectID uint32, complete bool, data []byte, err error) {
	if err := wire.DecodeTo(&r.scratch, datagram); err != nil {
		return 0, false, nil, err
	}
	res, err := r.IngestPacketEx(&r.scratch)
	if res.Complete {
		data, _ = r.Object(res.ObjectID)
	}
	return res.ObjectID, res.Complete, data, err
}

// IngestResult describes what one datagram did to an object's reassembly.
type IngestResult struct {
	ObjectID  uint32
	Complete  bool  // this datagram completed the object
	Duplicate bool  // packet ID already held for this object
	Packets   int   // distinct datagrams consumed so far
	K         int   // source symbols the object needs
	DecodeNS  int64 // first datagram to decode, when Complete
}

// IngestPacketEx is Ingest for an already-parsed packet, with the full
// outcome (see Reassembly.Ingest). A completed object waits in the
// receiver — further datagrams for it are duplicates — until the caller
// claims it with Object (a plain slice) or Take (the slab-resident form),
// or drops it with Forget.
func (r *Receiver) IngestPacketEx(p *wire.Packet) (IngestResult, error) {
	if _, ok := r.done[p.ObjectID]; ok {
		return IngestResult{ObjectID: p.ObjectID, Duplicate: true}, nil
	}
	a, ok := r.objects[p.ObjectID]
	if !ok {
		var err error
		if a, err = OpenReassembly(p); err != nil {
			return IngestResult{ObjectID: p.ObjectID}, err
		}
		r.objects[p.ObjectID] = a
	}
	res, obj, err := a.Ingest(p)
	if obj != nil {
		r.done[p.ObjectID] = obj
	}
	if obj != nil || errors.Is(err, ErrCorrupt) {
		delete(r.objects, p.ObjectID)
	}
	return res, err
}

// Object returns a completed object's data as a plain slice (see
// Decoded.Bytes: the first call copies it out of the decoder's slab).
func (r *Receiver) Object(id uint32) ([]byte, bool) {
	d, ok := r.done[id]
	if !ok {
		return nil, false
	}
	return d.Bytes(), true
}

// Take removes a completed object from the receiver and hands it to the
// caller still slab-resident: no byte has been copied since the decoder
// placed it. The caller owns it and must Release it (or call Bytes). The
// receiver forgets the object, exactly as after Forget.
func (r *Receiver) Take(id uint32) (*Decoded, bool) {
	d, ok := r.done[id]
	delete(r.done, id)
	return d, ok
}

// Forget drops all state for an object — in-flight reassembly and
// completed data alike, returning its slabs to the symbol pool. The
// object simply starts over if its datagrams keep arriving.
func (r *Receiver) Forget(id uint32) {
	if a, ok := r.objects[id]; ok {
		a.Close()
		delete(r.objects, id)
	}
	if d, ok := r.done[id]; ok {
		d.Release()
		delete(r.done, id)
	}
}

// InFlight returns the IDs of objects with partial reassembly state.
func (r *Receiver) InFlight() []uint32 {
	ids := make([]uint32, 0, len(r.objects))
	for id := range r.objects {
		ids = append(ids, id)
	}
	return ids
}

// PacketsIngested reports how many valid datagrams an in-flight object
// has consumed (0 for unknown or completed objects).
func (r *Receiver) PacketsIngested(id uint32) int {
	if a, ok := r.objects[id]; ok {
		return a.packets
	}
	return 0
}

// reassemblies holds closed Reassemblies, each with its seen bitset, for
// the next OpenReassembly.
var reassemblies symbol.FreeList[Reassembly]

// OpenReassembly opens the state of the object p belongs to from p's OTI:
// the (cached) code it names and a payload decoder for p's symbol length.
// p itself is not consumed — pass it to Ingest next. The Reassembly and
// the decoder in it are ones an earlier object closed, where there are
// any, and its slabs' buffer tables come from the symbol pool, so opening
// an object allocates nothing.
func OpenReassembly(p *wire.Packet) (*Reassembly, error) {
	if len(p.Payload) == 0 {
		return nil, fmt.Errorf("session: zero-length symbol")
	}
	a := reassemblies.Get()
	if a == nil {
		a = new(Reassembly)
	}
	if err := a.open(p); err != nil {
		reassemblies.Put(a)
		return nil, fmt.Errorf("session: %w", err)
	}
	return a, nil
}

// open readies a, new or recycled, for p's object.
func (a *Reassembly) open(p *wire.Packet) error {
	if err := p.PutHeader(a.hdr[:]); err != nil {
		return err
	}
	code, err := codes.CachedForWire(p.Family, int(p.K), int(p.N), p.Seed)
	if err != nil {
		return err
	}
	if a.dec, err = code.NewDecoder(len(p.Payload)); err != nil {
		return err
	}
	words := (int(p.N) + 63) / 64
	if cap(a.seen) < words {
		a.seen = make([]uint64, words)
	}
	a.seen = a.seen[:words]
	clear(a.seen)
	a.packets, a.start = 0, time.Now()
	return nil
}

// Header returns the header of the datagram that opened the object (its
// packet ID aside, the header every datagram of the object carries): the
// template wire.DecodeLike checks the object's datagrams against. It is
// read-only.
func (a *Reassembly) Header() []byte { return a.hdr[:] }

// The object's OTI, read from its header.
func (a *Reassembly) k() int      { return int(binary.BigEndian.Uint32(a.hdr[16:])) }
func (a *Reassembly) n() int      { return int(binary.BigEndian.Uint32(a.hdr[20:])) }
func (a *Reassembly) symLen() int { return int(binary.BigEndian.Uint32(a.hdr[32:])) }

// Ingest feeds one packet of the object to its decoder. The packet's
// Payload may alias a reused read buffer: the decoder copies what it
// keeps into its slabs, so the buffer is free again on return. A packet
// whose OTI contradicts the object's is an error and changes nothing; a
// repeated packet ID is flagged Duplicate and dropped before the decoder.
// The packet that completes the object returns it, still in the decoder's
// source slab and owned by the caller — or ErrCorrupt. Either way the
// Reassembly has closed itself, as Close does: the caller must drop it.
func (a *Reassembly) Ingest(p *wire.Packet) (IngestResult, *Decoded, error) {
	k, n := a.k(), a.n()
	res := IngestResult{ObjectID: p.ObjectID, K: k, Packets: a.packets}
	if int(p.K) != k || int(p.N) != n || uint64(p.Seed) != binary.BigEndian.Uint64(a.hdr[24:]) ||
		p.Family != wire.CodeFamily(a.hdr[5]) || len(p.Payload) != a.symLen() ||
		int(p.PacketID) >= n {
		return res, nil, fmt.Errorf("session: datagram inconsistent with object %d's OTI", p.ObjectID)
	}
	word, bit := p.PacketID/64, uint64(1)<<(p.PacketID%64)
	if a.seen[word]&bit != 0 {
		res.Duplicate = true
		return res, nil, nil
	}
	a.seen[word] |= bit
	a.packets++
	res.Packets = a.packets
	if finished := a.dec.ReceivePayload(int(p.PacketID), p.Payload); !finished {
		return res, nil, nil
	}
	decodeNS := time.Since(a.start).Nanoseconds()
	obj, err := a.finish()
	if err != nil {
		return res, nil, err
	}
	res.Complete = true
	res.DecodeNS = decodeNS
	if in := instr.Load(); in != nil {
		in.decodeNS.Observe(res.DecodeNS)
	}
	return res, obj, nil
}

// Close abandons the object: the decoder's slabs go back to the symbol
// pool, the decoder to its code and the Reassembly to the next
// OpenReassembly. The caller must drop its pointer, for the next object
// may be handed this Reassembly. A second Close before that is a no-op,
// and so is Close once Ingest closed the Reassembly.
func (a *Reassembly) Close() {
	if a.dec == nil {
		return
	}
	a.dec.Close()
	a.dec = nil
	reassemblies.Put(a)
}

// finish turns a done decoder into the decoded object: it takes the
// source slab — which already holds the symbols back to back in ID order
// — reads and checks the length prefix, and closes the Reassembly. The
// object is the slab's bytes behind the prefix; nothing is moved.
func (a *Reassembly) finish() (*Decoded, error) {
	slab := a.dec.TakeSources()
	total := a.k() * a.symLen()
	a.Close()
	if total < lengthPrefix {
		slab.Release()
		return nil, fmt.Errorf("%w: %d bytes of symbols cannot hold the length prefix", ErrCorrupt, total)
	}
	var pre [lengthPrefix]byte
	got := pre[:0]
	for seg := range slab.Segments(0, lengthPrefix) { // a symbol may be shorter than the prefix
		got = append(got, seg...)
	}
	objLen := binary.BigEndian.Uint64(got)
	if objLen > uint64(total-lengthPrefix) {
		slab.Release()
		return nil, fmt.Errorf("%w: length prefix %d > %d available", ErrCorrupt, objLen, total-lengthPrefix)
	}
	return &Decoded{slab: slab, off: lengthPrefix, n: int(objLen)}, nil
}
