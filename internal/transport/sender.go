package transport

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fecperf/internal/core"
	"fecperf/internal/obs"
	"fecperf/internal/sched"
	"fecperf/internal/session"
	"fecperf/internal/wire"
)

// SenderConfig tunes the carousel.
type SenderConfig struct {
	// Rate limits transmission in packets per second (0 = unpaced). The
	// sender paces through the sole share of its own SharedPacer.
	Rate float64
	// Burst is the token-bucket depth in packets (default 32). After an
	// idle period the share may admit up to its bucket plus the pacer's
	// surplus pool — twice Burst — back to back; the long-run rate is
	// Rate regardless.
	Burst int
	// Pacer, when non-nil, is the admission source instead (Rate and
	// Burst are then ignored). The daemon hands every cast's sender a
	// PacerShare here so many carousels divide one SharedPacer line-rate
	// budget. Time blocked in Take accrues on the same pacer-wait
	// counter either way.
	Pacer *PacerShare
	// BatchSize is how many frame views the round loop gathers per
	// flush: each flush is one pacer debit and one batch write — one
	// kernel crossing (sendmmsg/GSO) on UDP, one lock on loopback. 0
	// means 1; values above 64 are clamped. It sets the pacing
	// granularity (tokens are taken BatchSize at a time), never the
	// datagram sequence: the carousel is byte-identical at every batch
	// size.
	BatchSize int
	// Rounds bounds the carousel; 0 streams until the context is
	// cancelled — the ALC "infinite carousel" serving late joiners.
	Rounds int
	// Scheduler orders each round's packets when an object does not
	// carry its own (default Tx_model_4, the paper's recommendation for
	// unknown channels). Each round draws a fresh schedule, so
	// randomised models re-randomise between rounds.
	Scheduler core.Scheduler
	// Seed fixes the scheduling randomness. Round r's schedule for
	// object i depends only on (Seed, r, i) — not on carousel history —
	// so any (round, position) is reproducible; see StartRound.
	Seed int64
	// StartRound and StartPos resume a carousel mid-stream: Run begins
	// at round StartRound, position StartPos within that round, and
	// emits exactly the packet sequence a run from (0,0) would have
	// produced from that point on. Schedules are random-access, so
	// resuming costs nothing — the use case is a restarted sender (or a
	// receiver-driven seek) continuing a deterministic carousel.
	StartRound int
	StartPos   int
	// OnRound, when set, is called after each completed carousel round
	// with the 0-based round index (for progress logs).
	OnRound func(round int)
	// Metrics, when set, exposes the sender's counters on the registry
	// (sender_* series; views over the same counters Stats reports).
	// Registering two senders on one registry makes the newest own the
	// series.
	Metrics *obs.Registry
	// Tracer, when set, records a first_tx lifecycle event the first
	// time each object's datagrams hit the Conn.
	Tracer *obs.Tracer
}

// SenderStats is a point-in-time snapshot of sender counters.
type SenderStats struct {
	// PacketsSent counts datagrams handed to the Conn.
	PacketsSent uint64
	// BytesSent counts the datagram bytes handed to the Conn.
	BytesSent uint64
	// Rounds counts completed carousel rounds.
	Rounds uint64
	// PacerWaitNS counts nanoseconds spent blocked in the rate limiter.
	PacerWaitNS uint64
	// Resumes counts Runs that started mid-carousel (StartRound or
	// StartPos set).
	Resumes uint64
	// Batches counts flushes: batch writes handed to the Conn.
	Batches uint64
}

// Sender streams one or more encoded objects over a Conn as a
// rate-limited carousel. Each round every object's packets are freshly
// scheduled and the objects are interleaved round-robin, so a receiver
// joining mid-stream sees a statistically uniform packet mix — the
// regime the paper's Tx_model_4 analysis covers.
//
// The steady-state round loop allocates nothing and copies nothing:
// schedules are streaming (O(1) rules, drawn by value into each object's
// slot) and every object already holds its datagrams framed — header,
// checksum and payload — in its slab (session.EncodeObject), so sending
// packet id is handing the conn a view of frame id. A payload byte is
// written once when the object is encoded and read once by the conn.
//
// Configure and Add objects before Run; Run may be called once. Stats is
// safe to call concurrently with Run. The conn reads straight out of the
// objects' slabs, so added objects must stay open while the carousel
// runs; Close the sender when done — it waits for an in-flight Run to
// return (cancel its context first) before releasing the slabs.
type Sender struct {
	conn Conn
	cfg  SenderConfig
	objs []senderObject

	// runMu is held by Run for its whole duration; Close takes it, so
	// releasing the objects' slabs synchronizes with the round loop that
	// sends from them.
	runMu sync.Mutex

	packets   obs.Counter
	bytes     obs.Counter
	rounds    obs.Counter
	pacerWait obs.Counter // ns blocked in the pacer
	resumes   obs.Counter

	batches    obs.Counter
	batchSizes *obs.Histogram // datagrams per flush (nil without Metrics or batching)

	// The round loop's reusable flush state: the pending frame views,
	// gathered straight from the objects' slabs and handed to WriteBatch
	// as they are, so the steady-state round allocates nothing.
	views   []wire.Datagram
	pending uint64      // total length of views
	traces  []obs.Event // first_tx events deferred until the flush lands

	// rng draws the schedules: one O(1)-seed generator, reseeded per
	// (round, object) from a splitmix64 hash, so a schedule depends only
	// on those coordinates, never on how much of the carousel ran before
	// — the resume contract.
	rng *rand.Rand

	// notify, when set, is closed by the flush that takes the packet
	// count to notifyAt: how a Caster's reading stage learns, without
	// polling, that this carousel is close enough to its end to start
	// on the next window (startAfter). Set before Run, on its goroutine.
	// That flush also notes when it ran and what the count was, so the
	// caster can time the rest of the carousel: the one clock read an
	// unpaced sender ever makes.
	notify       chan struct{}
	notifyAt     uint64
	notifiedAt   time.Time
	notifiedSent uint64
}

type senderObject struct {
	obj       *session.Object
	layout    core.Layout
	scheduler core.Scheduler
	nsent     int           // per-round schedule truncation (0 = all)
	sched     core.Schedule // current round's order, redrawn each round
	cur       core.Cursor   // walk over sched, rebuilt with it
	txStarted bool          // first datagram already traced
}

// NewSender returns a sender writing to conn.
func NewSender(conn Conn, cfg SenderConfig) *Sender {
	s := &Sender{conn: conn, cfg: cfg, rng: rand.New(&core.SplitMixSource{})}
	if r := cfg.Metrics; r != nil {
		r.CounterFunc("sender_packets_total", "Datagrams handed to the conn.", nil, s.packets.Load)
		r.CounterFunc("sender_bytes_total", "Datagram bytes handed to the conn.", nil, s.bytes.Load)
		r.CounterFunc("sender_rounds_total", "Completed carousel rounds.", nil, s.rounds.Load)
		r.CounterFunc("sender_pacer_wait_ns_total", "Nanoseconds blocked in the rate limiter.", nil, s.pacerWait.Load)
		r.CounterFunc("sender_resumes_total", "Runs resumed mid-carousel from a stored position.", nil, s.resumes.Load)
		r.CounterFunc("sender_batches_total", "Batch flushes handed to the conn.", nil, s.batches.Load)
		if cfg.BatchSize > 1 {
			// A one-datagram sender has no size distribution to report,
			// and spares the per-packet histogram update.
			s.batchSizes = r.Histogram("sender_batch_size", "Datagrams per flush.", obs.ExpBuckets(1, 2, 7), 0, nil)
		}
		r.GaugeFunc("sender_gso_enabled", "1 when the conn's batched writes use UDP generic segmentation offload.", nil, func() int64 {
			if g, ok := conn.(interface{ GSOEnabled() bool }); ok && g.GSOEnabled() {
				return 1
			}
			return 0
		})
	}
	return s
}

// Add registers an encoded object with the carousel. The round loop
// sends views of the object's own frames, so the object must remain open
// (not Closed) until the carousel stops.
func (s *Sender) Add(obj *session.Object) error {
	if obj.N() <= 0 {
		return fmt.Errorf("transport: object %d has no packets", obj.ObjectID())
	}
	// Surface an unusable (e.g. already-closed) object at Add time
	// rather than mid-carousel.
	if _, err := obj.Frame(0); err != nil {
		return fmt.Errorf("transport: adding object %d: %w", obj.ObjectID(), err)
	}
	s.objs = append(s.objs, senderObject{
		obj:       obj,
		layout:    obj.Layout(),
		scheduler: obj.Scheduler(),
		nsent:     obj.NSent(),
	})
	return nil
}

// Close releases every added object's frame slab. It
// synchronizes with Run: if the carousel is still in flight, Close
// blocks until Run returns, so cancel Run's context first (an infinite
// carousel never returns on its own). The sender cannot transmit
// afterwards.
func (s *Sender) Close() {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	for _, o := range s.objs {
		o.obj.Close()
	}
}

// regroup readies the sender for another carousel of other objects under
// seed, keeping its buffers and its counters: how a Caster reuses one
// sender for every window group. Call it between Runs, then Add.
func (s *Sender) regroup(seed int64) {
	clear(s.objs)
	s.objs = s.objs[:0]
	s.cfg.Seed = seed
}

// Run drives the carousel until the configured rounds complete or ctx is
// cancelled. Cancellation is a graceful shutdown: Run stops between
// packets and returns ctx.Err().
func (s *Sender) Run(ctx context.Context) error {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if len(s.objs) == 0 {
		return fmt.Errorf("transport: sender has no objects")
	}
	startRound := s.cfg.StartRound
	if startRound < 0 {
		startRound = 0
	}
	p, release := ownPacer(s.cfg.Pacer, s.cfg.Rate, s.cfg.Burst)
	defer release()
	if startRound > 0 || s.cfg.StartPos > 0 {
		s.resumes.Inc()
	}
	batchSize := s.cfg.BatchSize
	if batchSize < 1 {
		batchSize = 1
	}
	if batchSize > maxSendBatch {
		batchSize = maxSendBatch
	}
	if cap(s.views) < batchSize {
		s.views = make([]wire.Datagram, 0, batchSize)
	}

	for round := startRound; s.cfg.Rounds <= 0 || round < s.cfg.Rounds; round++ {
		s.drawRound(round)
		if round == startRound && s.cfg.StartPos > 0 {
			// Resume mid-round: random access is O(1), so seeking every
			// object's cursor costs nothing.
			for i := range s.objs {
				o := &s.objs[i]
				pos := s.cfg.StartPos
				if pos > o.sched.Len() {
					pos = o.sched.Len()
				}
				o.cur.Seek(pos)
			}
		}
		// Round-robin interleave across objects: one packet from each
		// in turn, objects with longer schedules trailing off last. Each
		// object's cursor walks its schedule in batched draws.
		for remaining := len(s.objs); remaining > 0; {
			remaining = 0
			for i := range s.objs {
				o := &s.objs[i]
				id, ok := o.cur.Next()
				if !ok {
					continue
				}
				remaining++
				frame, err := o.obj.Frame(id)
				if err != nil {
					return fmt.Errorf("transport: object %d: %w", o.obj.ObjectID(), err)
				}
				s.views = append(s.views, frame)
				s.pending += uint64(len(frame))
				if !o.txStarted {
					o.txStarted = true
					if s.cfg.Tracer != nil {
						// Deferred: the event is emitted when the flush
						// actually hands the datagram to the conn.
						s.traces = append(s.traces, obs.Event{
							Event:  obs.TraceFirstTx,
							Object: o.obj.ObjectID(),
							Packet: id,
							Round:  round,
							Bytes:  int64(len(frame)),
						})
					}
				}
				if len(s.views) == batchSize {
					if err := s.flush(ctx, p); err != nil {
						return err
					}
				}
			}
		}
		// A round boundary flushes the tail: rounds stay observable units
		// (OnRound fires with every datagram of the round on the wire).
		if err := s.flush(ctx, p); err != nil {
			return err
		}
		s.rounds.Add(1)
		if s.cfg.OnRound != nil {
			s.cfg.OnRound(round)
		}
	}
	return nil
}

// drawRound draws every object's schedule for a round and returns how
// many datagrams the round will send.
func (s *Sender) drawRound(round int) (n int) {
	for i := range s.objs {
		o := &s.objs[i]
		sc := o.scheduler
		if sc == nil {
			sc = s.cfg.Scheduler
		}
		if sc == nil {
			sc = sched.TxModel4{}
		}
		s.rng.Seed(core.DeriveSeed(s.cfg.Seed, uint64(round), uint64(i)))
		// Honour the object's Section-6 n_sent truncation, exactly
		// as session.Object.Send does for a single pass.
		o.sched = sc.Schedule(o.layout, s.rng).Truncate(o.nsent)
		o.cur = o.sched.Cursor()
		n += o.sched.Len()
	}
	return n
}

// planned returns how many datagrams a bounded Run from the start of the
// carousel will send. A schedule's length follows from the layout and the
// scheduler, not from the draw, so round 0 stands for every round.
func (s *Sender) planned() int { return s.cfg.Rounds * s.drawRound(0) }

// maxSendBatch caps SenderConfig.BatchSize at the widths the layers
// below are built for: one StepMask on the loopback, one sendmmsg
// header array (and the kernel's GSO segment limit) on UDP.
const maxSendBatch = 64

// flush debits the pacer once for the pending views, hands them to the
// conn in one batch write, and settles the deferred metrics and
// first_tx traces. Cancellation is noticed here, once per flush. Only a
// paced sender reads the clock (but see notify).
func (s *Sender) flush(ctx context.Context, p *PacerShare) error {
	n := len(s.views)
	if n == 0 {
		return nil
	}
	if p != nil {
		start := time.Now()
		err := p.Take(ctx, n)
		if d := time.Since(start); d > time.Microsecond {
			s.pacerWait.Add(uint64(d))
		}
		if err != nil {
			return err
		}
	} else {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
	}
	if _, err := s.conn.WriteBatch(s.views); err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	s.packets.Add(uint64(n))
	s.bytes.Add(s.pending)
	if sent := s.packets.Load(); s.notify != nil && sent >= s.notifyAt {
		close(s.notify)
		s.notify, s.notifiedAt, s.notifiedSent = nil, time.Now(), sent
	}
	s.batches.Inc()
	s.batchSizes.Observe(int64(n))
	if tr := s.cfg.Tracer; tr != nil {
		for i := range s.traces {
			tr.Emit(s.traces[i])
		}
	}
	s.traces = s.traces[:0]
	s.views, s.pending = s.views[:0], 0
	return nil
}

// Stats returns a snapshot of the sender's counters.
func (s *Sender) Stats() SenderStats {
	return SenderStats{
		PacketsSent: s.packets.Load(),
		BytesSent:   s.bytes.Load(),
		Rounds:      s.rounds.Load(),
		PacerWaitNS: s.pacerWait.Load(),
		Resumes:     s.resumes.Load(),
		Batches:     s.batches.Load(),
	}
}
