package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"fecperf/internal/core"
	"fecperf/internal/obs"
	"fecperf/internal/session"
	"fecperf/internal/symbol"
	"fecperf/internal/transport"
)

// Cast states reported on the control plane.
const (
	StateRunning  = "running"
	StateDraining = "draining"
	StateDone     = "done"
	StateFailed   = "failed"
)

// castObject pairs a carousel object's encoded form with its retained
// source bytes: a ratio (or nsent) reload re-encodes from the source at
// the next round boundary, so the cast owns both for its lifetime.
type castObject struct {
	id   uint32
	data []byte
	obj  *session.Object
}

// Cast is one running broadcast inside the daemon: a carousel of
// encoded objects or a streaming chunk train, drawing transmission
// tokens from its PacerShare. All mutation (reload, object add/remove,
// drain) is queued and applied by the cast's own goroutine at the next
// round boundary — the carousel is never chopped mid-round.
type Cast struct {
	name string
	d    *Daemon

	share  *transport.PacerShare
	gc     *groupConn
	cancel context.CancelFunc
	done   chan struct{}
	kick   chan struct{} // wakes an idle (objectless) carousel loop

	// released is guarded by Daemon.mu, not c.mu: it arbitrates which
	// of Drain/RemoveCast/Close performs the one teardown (see
	// Daemon.releaseCastLocked).
	released bool

	mu       sync.Mutex
	spec     CastSpec
	pending  *CastSpec // reload applying at the next round boundary
	addQ     []castObject
	removeQ  []uint32
	objs     []*castObject
	round    int // next carousel round — the deterministic resume point
	state    string
	err      error
	drainReq bool
	progress transport.CastProgress // stream mode only

	packets   obs.Counter
	bytes     obs.Counter
	rounds    obs.Counter // carousel rounds, or stream chunks cast
	pacerWait obs.Counter
	reloads   obs.Counter
}

// encodeObject FEC-encodes one carousel object under the given spec.
// The object's construction seed derives from (the cast's construction
// seed, object id) so two objects of one cast never share an LDGM graph.
// The object carries no scheduler of its own: the round's sender holds
// the cast's, which a reload can change without re-encoding.
func encodeObject(cs CastSpec, id uint32, data []byte) (*session.Object, error) {
	oc, err := cs.ObjectConfig(id)
	if err != nil {
		return nil, fmt.Errorf("daemon: cast %s: %w", cs.Name, err)
	}
	oc.Seed = core.DeriveSeed(oc.Seed, uint64(id))
	oc.Scheduler = nil
	obj, err := session.EncodeObject(data, oc)
	if err != nil {
		return nil, fmt.Errorf("daemon: cast %s: encoding object %d: %w", cs.Name, id, err)
	}
	return obj, nil
}

// delivery is the spec's delivery with the daemon's batch size where the
// cast sets none.
func (c *Cast) delivery(cs CastSpec) transport.Delivery {
	d := cs.Delivery
	if d.BatchSize == 0 {
		d.BatchSize = c.d.cfg.BatchSize
	}
	return d
}

// run is the cast goroutine: it drives the carousel or stream until
// completion, drain, removal, or failure, then records the terminal
// state. The daemon waits on done.
func (c *Cast) run(ctx context.Context) {
	defer close(c.done)
	var err error
	if c.spec.Mode == ModeStream {
		err = c.runStream(ctx)
	} else {
		err = c.runCarousel(ctx)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		c.state = StateFailed
		c.err = err
		c.d.castErrors.Inc()
		return
	}
	c.state = StateDone
}

// runCarousel serves the cast's objects round after round. Each round
// boundary is a consistency point: queued reloads, object membership
// changes and drain requests apply there, and the sender resumes
// deterministically from the stored (round, 0) position — schedules
// depend only on (seed, round, object), never on carousel history.
func (c *Cast) runCarousel(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := c.applyPending(); err != nil {
			return err
		}
		c.mu.Lock()
		if c.drainReq {
			c.mu.Unlock()
			return nil
		}
		cs := c.spec
		startRound := c.round
		objs := make([]*session.Object, len(c.objs))
		for i, o := range c.objs {
			objs[i] = o.obj
		}
		c.mu.Unlock()

		if len(objs) == 0 {
			// Every object was removed: idle until membership or drain
			// state changes. The carousel position is retained, so a
			// re-added object resumes the round count, not round zero.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-c.kick:
			}
			continue
		}
		if cs.Rounds > 0 && startRound >= cs.Rounds {
			return nil
		}

		// One sender serves every round until something queues a change:
		// OnRound then cancels between rounds, so the sender stops at the
		// boundary with the whole round (batches flushed) on the wire.
		roundCtx, cancel := context.WithCancel(ctx)
		var interrupted atomic.Bool
		dl := c.delivery(cs)
		// fold accumulates the sender's counter deltas into the cast's
		// lifetime counters. Called from OnRound (sender goroutine, between
		// rounds) and once after Run returns — never concurrently — so the
		// status endpoint and metrics see progress every round, not only
		// when a sender run ends.
		var s *transport.Sender
		var folded transport.SenderStats
		fold := func() {
			st := s.Stats()
			c.packets.Add(st.PacketsSent - folded.PacketsSent)
			c.bytes.Add(st.BytesSent - folded.BytesSent)
			c.pacerWait.Add(st.PacerWaitNS - folded.PacerWaitNS)
			folded = st
		}
		s = transport.NewSender(c.gc.conn, transport.SenderConfig{
			Pacer:      c.share,
			BatchSize:  dl.BatchSize,
			Rounds:     dl.Rounds,
			StartRound: startRound,
			Scheduler:  dl.Scheduler,
			Seed:       dl.Seed,
			Tracer:     c.d.cfg.Tracer,
			OnRound: func(r int) {
				c.rounds.Inc()
				fold()
				c.mu.Lock()
				c.round = r + 1
				stop := c.pending != nil || len(c.addQ) > 0 || len(c.removeQ) > 0 || c.drainReq
				c.mu.Unlock()
				if stop {
					interrupted.Store(true)
					cancel()
				}
			},
		})
		addErr := func() error {
			for _, o := range objs {
				if err := s.Add(o); err != nil {
					return err
				}
			}
			return nil
		}()
		if addErr != nil {
			cancel()
			return addErr
		}
		err := s.Run(roundCtx)
		fold()
		cancel()
		// The cast owns the objects (they survive reloads and removal
		// queues); the sender is not Closed here.
		switch {
		case err == nil:
			return nil // bounded carousel ran its configured rounds
		case interrupted.Load():
			// Stopped at a round boundary to apply queued changes; the
			// loop re-enters applyPending.
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			return err
		}
	}
}

// cancelReader makes a blocking stream source interruptible: the reads
// run on the reader's own goroutine, so a hard-cancelled cast exits even
// while the source hangs (a stuck pipe, a stalled network file). The
// caster reads sequentially, so at most one inner read is in flight; a
// read abandoned by cancellation parks until the source finally returns
// (or process exit) — bounded at one goroutine per killed stream cast.
//
// The inner read never touches the caller's p (the caller may reuse p the
// moment Read returns on cancellation); it fills the reader's one pooled
// 64 KiB buffer — the most the caster asks for at a time — which release
// returns. An abandoned read owns the buffer and Puts it when the source
// returns; every later Read fails on the cancelled context.
type cancelReader struct {
	ctx  context.Context
	r    io.Reader
	req  chan []byte // the buffer to fill, to the reading goroutine
	res  chan cancelReadResult
	busy atomic.Bool // a read is in flight; who clears it owns the buffer
	buf  []byte      // nil once abandoned
}

type cancelReadResult struct {
	n   int
	err error
}

func newCancelReader(ctx context.Context, r io.Reader) *cancelReader {
	c := &cancelReader{ctx: ctx, r: r, req: make(chan []byte), res: make(chan cancelReadResult, 1),
		buf: symbol.GetDirty(symbol.MaxPooled)}
	go c.serve()
	return c
}

func (c *cancelReader) serve() {
	for buf := range c.req {
		n, err := c.r.Read(buf)
		if !c.busy.CompareAndSwap(true, false) {
			symbol.Put(buf) // abandoned: the buffer is this read's
			return
		}
		c.res <- cancelReadResult{n, err}
	}
}

func (c *cancelReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	c.busy.Store(true)
	c.req <- c.buf[:min(len(p), len(c.buf))]
	select {
	case r := <-c.res:
		return copy(p, c.buf[:r.n]), r.err
	case <-c.ctx.Done():
		if c.busy.CompareAndSwap(true, false) {
			c.buf = nil // abandoned: serve Puts it when the source returns
		}
		return 0, c.ctx.Err()
	}
}

// release stops the reading goroutine and returns the buffer to the pool.
func (c *cancelReader) release() {
	close(c.req)
	symbol.Put(c.buf)
}

// runStream drives a transport.Caster over the cast's source. Stream
// casts are finite: they end with the trailing manifest. Drain lets
// them finish (a chopped train is undecodable); the drain deadline
// hard-cancels stragglers.
func (c *Cast) runStream(ctx context.Context) error {
	c.mu.Lock()
	cs := c.spec
	c.mu.Unlock()
	var src io.Reader = cs.Source
	if src == nil {
		f, err := os.Open(cs.File)
		if err != nil {
			return fmt.Errorf("daemon: cast %s: %w", cs.Name, err)
		}
		defer f.Close()
		src = f
	}
	cr := newCancelReader(ctx, src)
	defer cr.release()
	// fold accumulates the caster's counter deltas into the cast's
	// lifetime counters on every progress step — OnProgress fires on the
	// caster's sending goroutine, one call at a time and none after Run
	// has returned, and fold runs once more then — so a long-running
	// stream's counters advance live.
	var caster *transport.Caster
	var folded transport.CasterStats
	fold := func() {
		st := caster.Stats()
		c.packets.Add(st.PacketsSent - folded.PacketsSent)
		c.bytes.Add(st.BytesSent - folded.BytesSent)
		c.pacerWait.Add(st.PacerWaitNS - folded.PacerWaitNS)
		c.rounds.Add(st.ChunksCast - folded.ChunksCast)
		folded = st
	}
	caster, err := transport.NewCaster(c.gc.conn, cr, transport.CasterConfig{
		Delivery: c.delivery(cs),
		Pacer:    c.share,
		Tracer:   c.d.cfg.Tracer,
		OnProgress: func(p transport.CastProgress) {
			c.mu.Lock()
			c.progress = p
			c.mu.Unlock()
			fold()
		},
	})
	if err != nil {
		return fmt.Errorf("daemon: cast %s: %w", cs.Name, err)
	}
	runErr := caster.Run(ctx)
	fold()
	return runErr
}

// applyPending applies queued reloads and object membership changes.
// Called only from the cast goroutine between rounds — the consistency
// point where no sender is in flight.
func (c *Cast) applyPending() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.pending; p != nil {
		c.pending = nil
		old := c.spec
		c.spec = *p
		c.reloads.Inc()
		if p.Weight != old.Weight {
			c.share.SetWeight(p.Weight)
		}
		if p.Codec.Ratio != old.Codec.Ratio || p.NSent != old.NSent {
			// The expansion changed: re-encode every object from its
			// retained source. Old objects are closed only after every
			// replacement encoded, so a failed re-encode leaves the
			// carousel on the old code.
			fresh := make([]*session.Object, len(c.objs))
			for i, o := range c.objs {
				obj, err := encodeObject(c.spec, o.id, o.data)
				if err != nil {
					for _, f := range fresh[:i] {
						f.Close()
					}
					c.err = err
					return err
				}
				fresh[i] = obj
			}
			for i, o := range c.objs {
				o.obj.Close()
				o.obj = fresh[i]
			}
		}
	}
	for _, id := range c.removeQ {
		for i, o := range c.objs {
			if o.id == id {
				o.obj.Close()
				c.objs = append(c.objs[:i], c.objs[i+1:]...)
				break
			}
		}
	}
	c.removeQ = nil
	for _, q := range c.addQ {
		obj, err := encodeObject(c.spec, q.id, q.data)
		if err != nil {
			c.addQ = nil
			c.err = err
			return err
		}
		c.objs = append(c.objs, &castObject{id: q.id, data: q.data, obj: obj})
	}
	c.addQ = nil
	return nil
}

// wake nudges the cast goroutine if it is idling without objects.
func (c *Cast) wake() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// reload queues a spec change. Immutable keys are rejected with a diff
// error; mutable ones apply at the next round boundary. Stream casts
// accept only weight, which applies immediately (streams have no
// carousel boundary to wait for).
func (c *Cast) reload(next CastSpec) error {
	if err := next.normalize(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.spec
	if c.pending != nil {
		cur = *c.pending
	}
	if err := diffReload(cur, next); err != nil {
		return err
	}
	// The in-process source handles don't travel through spec lines;
	// keep the running ones.
	next.Data = c.spec.Data
	next.Source = c.spec.Source
	c.reloadsQueuedLocked(next)
	return nil
}

func (c *Cast) reloadsQueuedLocked(next CastSpec) {
	if c.spec.Mode == ModeStream {
		if next.Weight != c.spec.Weight {
			c.share.SetWeight(next.Weight)
		}
		c.spec = next
		c.reloads.Inc()
		return
	}
	c.pending = &next
	c.wake()
}

// addObject queues a new carousel object, joining at the next round
// boundary.
func (c *Cast) addObject(id uint32, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spec.Mode != ModeCarousel {
		return fmt.Errorf("daemon: cast %s: objects can only be added to carousel casts", c.name)
	}
	for _, o := range c.objs {
		if o.id == id {
			return fmt.Errorf("daemon: cast %s: object %d already in the carousel", c.name, id)
		}
	}
	for _, q := range c.addQ {
		if q.id == id {
			return fmt.Errorf("daemon: cast %s: object %d already queued", c.name, id)
		}
	}
	c.addQ = append(c.addQ, castObject{id: id, data: data})
	c.wake()
	return nil
}

// removeObject queues a carousel object's removal at the next round
// boundary.
func (c *Cast) removeObject(id uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spec.Mode != ModeCarousel {
		return fmt.Errorf("daemon: cast %s: objects can only be removed from carousel casts", c.name)
	}
	found := false
	for _, o := range c.objs {
		if o.id == id {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("daemon: cast %s: no object %d in the carousel", c.name, id)
	}
	c.removeQ = append(c.removeQ, id)
	c.wake()
	return nil
}

// drain asks the cast to stop at its next consistency point: the
// current round's end for carousels, stream completion for streams.
func (c *Cast) drain() {
	c.mu.Lock()
	c.drainReq = true
	if c.state == StateRunning {
		c.state = StateDraining
	}
	c.mu.Unlock()
	c.wake()
}

// release closes the cast's objects and returns its pacer share —
// called by the daemon once the goroutine has exited.
func (c *Cast) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, o := range c.objs {
		o.obj.Close()
	}
	c.objs = nil
	c.share.Close()
}

// status snapshots the cast for the control plane.
func (c *Cast) status() CastStatus {
	c.mu.Lock()
	st := CastStatus{
		Name:    c.name,
		Addr:    c.spec.Addr,
		Mode:    c.spec.Mode,
		Spec:    c.spec.Spec(),
		State:   c.state,
		Weight:  c.spec.Weight,
		Objects: len(c.objs),
		Round:   c.round,
		Chunks:  c.progress.ChunksCast,
	}
	errStr := ""
	if c.err != nil {
		errStr = c.err.Error()
	}
	c.mu.Unlock()
	st.Error = errStr
	st.Rounds = c.rounds.Load()
	st.Packets = c.packets.Load()
	st.Bytes = c.bytes.Load()
	st.PacerWaitNS = c.pacerWait.Load()
	st.Reloads = c.reloads.Load()
	st.Utilization = c.share.Utilization()
	return st
}

// CastStatus is the control plane's (and Casts') view of one cast.
type CastStatus struct {
	Name        string  `json:"name"`
	Addr        string  `json:"addr"`
	Mode        string  `json:"mode"`
	Spec        string  `json:"spec"`
	State       string  `json:"state"`
	Weight      float64 `json:"weight"`
	Objects     int     `json:"objects"`
	Round       int     `json:"round"`
	Chunks      int     `json:"chunks,omitempty"`
	Rounds      uint64  `json:"rounds"`
	Packets     uint64  `json:"packets"`
	Bytes       uint64  `json:"bytes"`
	PacerWaitNS uint64  `json:"pacer_wait_ns"`
	Reloads     uint64  `json:"reloads"`
	Utilization float64 `json:"utilization"`
	Error       string  `json:"error,omitempty"`
}
