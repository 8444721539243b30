package daemon

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"fecperf/internal/obs"
	"fecperf/internal/transport"
)

// DefaultDrainTimeout bounds a graceful drain: casts that have not
// reached a consistency point by then are hard-cancelled.
const DefaultDrainTimeout = 30 * time.Second

// Config tunes a Daemon.
type Config struct {
	// Rate is the daemon's aggregate line-rate budget in packets per
	// second, divided among casts by weight through one SharedPacer.
	// 0 runs every cast unpaced.
	Rate float64
	// Burst is the shared pacer's global bucket depth in packets
	// (0 = transport.DefaultSharedBurst).
	Burst int
	// BatchSize is the default sender batch size for casts that do not
	// set their own.
	BatchSize int
	// DrainTimeout bounds Drain (default DefaultDrainTimeout).
	DrainTimeout time.Duration
	// Metrics, when set, exposes daemon_* series: per-cast labeled
	// counters plus daemon-level lifecycle counters.
	Metrics *obs.Registry
	// Tracer passes through to every cast's senders.
	Tracer *obs.Tracer
	// Dial opens the socket for a destination group (default
	// transport.DialUDP). Tests inject loopback conns here.
	Dial func(addr string) (transport.Conn, error)
}

// groupConn is one refcounted destination-group socket: casts with the
// same Addr share it, so the daemon holds one batched socket path per
// group no matter how many casts feed it.
type groupConn struct {
	addr string
	conn transport.Conn
	refs int
}

// Daemon multiplexes many concurrent casts over one shared hierarchical
// pacer and one batched socket per destination group. Casts are added,
// removed, reloaded and drained while it runs; see CastSpec for the
// per-cast configuration and ControlHandler for the HTTP face.
type Daemon struct {
	cfg     Config
	pacer   *transport.SharedPacer
	ctx     context.Context
	cancel  context.CancelFunc
	drained chan struct{}

	mu       sync.Mutex
	casts    map[string]*Cast
	conns    map[string]*groupConn
	draining bool
	closed   bool

	reloadsTotal obs.Counter
	drainsTotal  obs.Counter
	castErrors   obs.Counter
	castsAdded   obs.Counter
	castsRemoved obs.Counter
}

// New returns a running (but empty) daemon.
func New(cfg Config) *Daemon {
	if cfg.Dial == nil {
		cfg.Dial = transport.DialUDP
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	d := &Daemon{
		cfg:     cfg,
		pacer:   transport.NewSharedPacer(cfg.Rate, cfg.Burst),
		drained: make(chan struct{}),
		casts:   make(map[string]*Cast),
		conns:   make(map[string]*groupConn),
	}
	d.ctx, d.cancel = context.WithCancel(context.Background())
	if r := cfg.Metrics; r != nil {
		r.GaugeFunc("daemon_casts", "Casts currently registered.", nil, func() int64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return int64(len(d.casts))
		})
		r.GaugeFunc("daemon_groups", "Destination-group sockets currently open.", nil, func() int64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return int64(len(d.conns))
		})
		r.GaugeFunc("daemon_rate_pps", "Aggregate line-rate budget in packets per second.", nil, func() int64 {
			return int64(d.pacer.Rate())
		})
		r.CounterFunc("daemon_reloads_total", "Hot spec reloads accepted.", nil, d.reloadsTotal.Load)
		r.CounterFunc("daemon_drains_total", "Drains initiated.", nil, d.drainsTotal.Load)
		r.CounterFunc("daemon_cast_errors_total", "Casts that terminated with an error.", nil, d.castErrors.Load)
		r.CounterFunc("daemon_casts_added_total", "Casts accepted over the daemon's lifetime.", nil, d.castsAdded.Load)
		r.CounterFunc("daemon_casts_removed_total", "Casts removed over the daemon's lifetime.", nil, d.castsRemoved.Load)
	}
	return d
}

// Rate returns the aggregate line-rate budget (0 = unpaced).
func (d *Daemon) Rate() float64 { return d.pacer.Rate() }

// acquireConnLocked returns the destination group's shared socket,
// dialing it on first use.
func (d *Daemon) acquireConnLocked(addr string) (*groupConn, error) {
	if gc, ok := d.conns[addr]; ok {
		gc.refs++
		return gc, nil
	}
	conn, err := d.cfg.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("daemon: dialing group %s: %w", addr, err)
	}
	gc := &groupConn{addr: addr, conn: conn, refs: 1}
	d.conns[addr] = gc
	return gc, nil
}

// releaseConnLocked drops one reference; the socket closes with the
// last cast that used it.
func (d *Daemon) releaseConnLocked(gc *groupConn) {
	gc.refs--
	if gc.refs <= 0 {
		gc.conn.Close()
		delete(d.conns, gc.addr)
	}
}

// releaseCastLocked tears down a cast — objects, pacer share, group
// socket reference — exactly once. Drain, RemoveCast and Close can
// each race to the same cast's teardown; the released flag (guarded by
// d.mu) makes the losers no-ops instead of double socket unrefs.
func (d *Daemon) releaseCastLocked(c *Cast) {
	if c.released {
		return
	}
	c.released = true
	c.release()
	d.releaseConnLocked(c.gc)
}

// AddCast registers and starts a new cast. The spec's source is read
// here (file casts load their bytes, carousels encode their first
// object), so a broken spec fails fast instead of inside the cast
// goroutine.
func (d *Daemon) AddCast(cs CastSpec) error {
	if err := cs.normalize(); err != nil {
		return err
	}
	if cs.Mode == ModeCarousel && cs.Data == nil {
		if cs.File == "" {
			return fmt.Errorf("daemon: cast %s: carousel needs file= (or in-process Data)", cs.Name)
		}
		data, err := os.ReadFile(cs.File)
		if err != nil {
			return fmt.Errorf("daemon: cast %s: %w", cs.Name, err)
		}
		cs.Data = data
	}
	if cs.Mode == ModeStream && cs.Source == nil && cs.File == "" {
		return fmt.Errorf("daemon: cast %s: stream needs file= (or in-process Source)", cs.Name)
	}

	d.mu.Lock()
	if d.closed || d.draining {
		d.mu.Unlock()
		return fmt.Errorf("daemon: not accepting casts (draining or closed)")
	}
	if _, dup := d.casts[cs.Name]; dup {
		d.mu.Unlock()
		return fmt.Errorf("daemon: cast %s already exists", cs.Name)
	}
	gc, err := d.acquireConnLocked(cs.Addr)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	d.mu.Unlock()

	c := &Cast{
		name:  cs.Name,
		d:     d,
		gc:    gc,
		done:  make(chan struct{}),
		kick:  make(chan struct{}, 1),
		spec:  cs,
		state: StateRunning,
	}
	if cs.Mode == ModeCarousel {
		obj, err := encodeObject(cs, cs.BaseObjectID, cs.Data)
		if err != nil {
			d.mu.Lock()
			d.releaseConnLocked(gc)
			d.mu.Unlock()
			return err
		}
		c.objs = []*castObject{{id: cs.BaseObjectID, data: cs.Data, obj: obj}}
	}
	c.share = d.pacer.AddShare(cs.Weight)

	castCtx, cancel := context.WithCancel(d.ctx)
	c.cancel = cancel

	d.mu.Lock()
	if d.closed || d.draining {
		d.releaseCastLocked(c)
		d.mu.Unlock()
		cancel()
		return fmt.Errorf("daemon: not accepting casts (draining or closed)")
	}
	d.casts[cs.Name] = c
	d.mu.Unlock()
	d.castsAdded.Inc()
	d.registerCastMetrics(c)

	go c.run(castCtx)
	return nil
}

// registerCastMetrics exposes the cast's counters as labeled series.
// The registry has no unregister: series of a removed cast freeze at
// their final value, and re-adding the name hands the series to the new
// cast (newest registration owns the name+labels pair).
func (d *Daemon) registerCastMetrics(c *Cast) {
	r := d.cfg.Metrics
	if r == nil {
		return
	}
	lbl := obs.L("cast", c.name)
	r.CounterFunc("daemon_cast_packets_total", "Datagrams the cast handed to its group socket.", lbl, c.packets.Load)
	r.CounterFunc("daemon_cast_bytes_total", "Datagram bytes the cast handed to its group socket.", lbl, c.bytes.Load)
	r.CounterFunc("daemon_cast_rounds_total", "Completed carousel rounds (stream casts: chunks cast).", lbl, c.rounds.Load)
	r.CounterFunc("daemon_cast_pacer_wait_ns_total", "Nanoseconds the cast spent blocked on its pacer share.", lbl, c.pacerWait.Load)
	r.CounterFunc("daemon_cast_reloads_total", "Hot reloads applied to the cast.", lbl, c.reloads.Load)
	r.GaugeFunc("daemon_cast_weight", "The cast's pacer share weight.", lbl, func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(c.spec.Weight)
	})
	r.GaugeFunc("daemon_cast_share_utilization_permille", "Lifetime tokens taken per 1000 assured (1000 = exactly the weighted slice; above = borrowed idle share).", lbl, func() int64 {
		return int64(c.share.Utilization() * 1000)
	})
}

// RemoveCast stops a cast immediately (mid-round — remove is not a
// drain), releases its objects, pacer share and socket reference, and
// forgets it. During a drain, removal is refused: the drain already
// owns every cast's teardown.
func (d *Daemon) RemoveCast(name string) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return fmt.Errorf("daemon: draining — casts are torn down by the drain")
	}
	c, ok := d.casts[name]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("daemon: no cast %s", name)
	}
	delete(d.casts, name)
	d.mu.Unlock()

	c.cancel()
	<-c.done
	d.mu.Lock()
	d.releaseCastLocked(c)
	d.mu.Unlock()
	d.castsRemoved.Inc()
	return nil
}

// Reload applies a new spec to a running cast: immutable keys are
// rejected with a diff error, mutable ones take effect at the cast's
// next round boundary.
func (d *Daemon) Reload(name string, next CastSpec) error {
	d.mu.Lock()
	c, ok := d.casts[name]
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("daemon: no cast %s", name)
	}
	if err := c.reload(next); err != nil {
		return err
	}
	d.reloadsTotal.Inc()
	return nil
}

// ReloadSpec is Reload from a spec line (the control plane's form).
func (d *Daemon) ReloadSpec(name, line string) error {
	next, err := ParseCastSpec(line)
	if err != nil {
		return err
	}
	if next.Name != name {
		return fmt.Errorf("daemon: reload of %s renames to %s — name is immutable", name, next.Name)
	}
	return d.Reload(name, next)
}

// AddObject queues a new object into a carousel cast at its next round
// boundary.
func (d *Daemon) AddObject(cast string, id uint32, data []byte) error {
	d.mu.Lock()
	c, ok := d.casts[cast]
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("daemon: no cast %s", cast)
	}
	return c.addObject(id, data)
}

// RemoveObject queues an object's removal from a carousel cast at its
// next round boundary.
func (d *Daemon) RemoveObject(cast string, id uint32) error {
	d.mu.Lock()
	c, ok := d.casts[cast]
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("daemon: no cast %s", cast)
	}
	return c.removeObject(id)
}

// Casts lists every registered cast, sorted by name.
func (d *Daemon) Casts() []CastStatus {
	d.mu.Lock()
	casts := make([]*Cast, 0, len(d.casts))
	for _, c := range d.casts {
		casts = append(casts, c)
	}
	d.mu.Unlock()
	out := make([]CastStatus, len(casts))
	for i, c := range casts {
		out[i] = c.status()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CastStatus returns one cast's status.
func (d *Daemon) CastStatus(name string) (CastStatus, bool) {
	d.mu.Lock()
	c, ok := d.casts[name]
	d.mu.Unlock()
	if !ok {
		return CastStatus{}, false
	}
	return c.status(), true
}

// Draining reports whether a drain is in progress or finished.
func (d *Daemon) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Drained returns a channel closed when a Drain has completed — the
// process wrapper's exit signal.
func (d *Daemon) Drained() <-chan struct{} { return d.drained }

// Drain gracefully stops the daemon: no new casts are accepted, every
// carousel finishes its in-flight round (batches flushed), every stream
// runs to its manifest, and resources are released. Casts still running
// at the deadline — Config.DrainTimeout or ctx, whichever ends first —
// are hard-cancelled, and Drain reports them in its error. Drain is
// idempotent; later calls return once the first completes.
func (d *Daemon) Drain(ctx context.Context) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return fmt.Errorf("daemon: closed")
	}
	if d.draining {
		d.mu.Unlock()
		select {
		case <-d.drained:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	d.draining = true
	casts := make([]*Cast, 0, len(d.casts))
	for _, c := range d.casts {
		casts = append(casts, c)
	}
	d.mu.Unlock()
	d.drainsTotal.Inc()

	for _, c := range casts {
		c.drain()
	}
	deadline := time.NewTimer(d.cfg.DrainTimeout)
	defer deadline.Stop()
	// The timer channel fires exactly once: remember that it did, so
	// every cast after the first laggard is hard-cancelled too instead
	// of blocking forever on a drained channel.
	expired := false
	var killed []string
	for _, c := range casts {
		if !expired {
			select {
			case <-c.done:
				continue
			case <-deadline.C:
				expired = true
			case <-ctx.Done():
				expired = true
			}
		}
		c.cancel()
		<-c.done
		killed = append(killed, c.name)
	}
	d.mu.Lock()
	for _, c := range casts {
		d.releaseCastLocked(c)
		delete(d.casts, c.name)
	}
	d.mu.Unlock()
	close(d.drained)
	if killed != nil {
		sort.Strings(killed)
		return fmt.Errorf("daemon: drain deadline hard-cancelled casts %v", killed)
	}
	return nil
}

// Close hard-stops everything immediately (no round-boundary grace).
// Prefer Drain for an orderly exit.
func (d *Daemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	casts := make([]*Cast, 0, len(d.casts))
	for _, c := range d.casts {
		casts = append(casts, c)
	}
	d.casts = make(map[string]*Cast)
	d.mu.Unlock()

	d.cancel()
	for _, c := range casts {
		<-c.done
	}
	d.mu.Lock()
	for _, c := range casts {
		d.releaseCastLocked(c)
	}
	d.mu.Unlock()
}
