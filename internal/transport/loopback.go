package transport

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fecperf/internal/channel"
	"fecperf/internal/core"
	"fecperf/internal/wire"
)

// DefaultLoopbackQueue is the per-receiver queue depth when
// Loopback.Receiver is called with queue <= 0. It plays the role of the
// kernel socket buffer: a sender bursting faster than the receiver drains
// overflows it and the excess is dropped, exactly as UDP would.
const DefaultLoopbackQueue = 1024

// Loopback is an in-memory broadcast medium: every datagram written to a
// sender endpoint is offered to every receiver endpoint, each behind its
// own loss process. It turns any core.Channel — Gilbert bursts, Bernoulli
// loss, recorded traces — into a live network impairment, so integration
// tests and local experiments can exercise the full transport stack with
// deterministic loss and zero sockets.
type Loopback struct {
	mu        sync.Mutex
	receivers []*loopConn
	closed    bool
}

// NewLoopback returns an empty medium with no receivers attached.
func NewLoopback() *Loopback {
	return &Loopback{}
}

// Sender returns an endpoint whose writes fan out to every receiver
// attached at transmission time. Multiple senders may share one medium.
func (l *Loopback) Sender() Conn {
	return &loopSender{hub: l}
}

// Receiver attaches a receiving endpoint behind the given loss process
// (nil = lossless). queue <= 0 selects DefaultLoopbackQueue. The channel
// is owned by the endpoint afterwards; do not share one core.Channel
// between receivers — the models are stateful.
func (l *Loopback) Receiver(ch core.Channel, queue int) Conn {
	c := newLoopConn(l, queue)
	c.ch = ch
	return l.attach(c)
}

// ReceiverStepper attaches a receiving endpoint whose loss process is
// the batched stepper st over a splitmix64 stream seeded with seed. It
// is the batch-native sibling of Receiver: a WriteBatch fan-out steps
// the chain in 64-wide StepMask calls — one lock acquisition and one
// interface dispatch per 64 datagrams — and the loss sequence is
// bit-identical at every batch size (and identical to the scalar chain
// the stepper's factory builds over a core.SplitMixSource with the same
// seed). queue <= 0 selects DefaultLoopbackQueue.
func (l *Loopback) ReceiverStepper(st channel.Stepper, seed int64, queue int) Conn {
	chain := st.Chain(uint64(seed))
	return l.Receiver(&chain, queue)
}

func newLoopConn(l *Loopback, queue int) *loopConn {
	if queue <= 0 {
		queue = DefaultLoopbackQueue
	}
	return &loopConn{
		hub:      l,
		queue:    make(chan []byte, queue),
		closed:   make(chan struct{}),
		deadline: newDeadline(),
	}
}

func (l *Loopback) attach(c *loopConn) Conn {
	l.mu.Lock()
	if l.closed {
		// Attaching to a closed medium yields an already-closed conn
		// (Recv returns ErrClosed immediately) rather than one that
		// blocks forever waiting on a dead hub.
		l.mu.Unlock()
		c.closeLocked()
		return c
	}
	l.receivers = append(l.receivers, c)
	l.mu.Unlock()
	return c
}

// Close detaches and closes every receiver and fails future sends.
func (l *Loopback) Close() error {
	l.mu.Lock()
	rxs := l.receivers
	l.receivers = nil
	l.closed = true
	l.mu.Unlock()
	for _, c := range rxs {
		c.closeLocked()
	}
	return nil
}

// broadcastBatch offers a batch to every attached receiver. The copies
// all receivers share live in one backing allocation, and each receiver
// applies its loss model to the whole batch under a single lock.
func (l *Loopback) broadcastBatch(batch []wire.Datagram) (int, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, fmt.Errorf("transport: loopback: %w", ErrClosed)
	}
	rxs := make([]*loopConn, len(l.receivers))
	copy(rxs, l.receivers)
	l.mu.Unlock()
	total := 0
	for _, d := range batch {
		total += len(d)
	}
	backing := make([]byte, 0, total)
	copies := make([][]byte, len(batch))
	for i, d := range batch {
		start := len(backing)
		backing = append(backing, d...)
		copies[i] = backing[start:len(backing):len(backing)]
	}
	for _, c := range rxs {
		c.deliverBatch(copies)
	}
	return len(batch), nil
}

// loopSender is the transmitting endpoint of a Loopback.
type loopSender struct {
	hub    *Loopback
	closed atomic.Bool
}

func (s *loopSender) Send(datagram []byte) error {
	_, err := s.WriteBatch([]wire.Datagram{datagram})
	return err
}

// WriteBatch implements Conn: the whole batch crosses the hub with one
// lock round trip and one backing copy per receiver set, and each
// receiver steps its loss model over the batch in 64-wide masks.
func (s *loopSender) WriteBatch(batch []wire.Datagram) (int, error) {
	if s.closed.Load() {
		return 0, fmt.Errorf("transport: loopback sender: %w", ErrClosed)
	}
	return s.hub.broadcastBatch(batch)
}

func (s *loopSender) Recv([]byte) (int, error) {
	return 0, fmt.Errorf("transport: loopback sender cannot receive")
}

func (s *loopSender) ReadBatch([]wire.Datagram) (int, error) {
	return 0, fmt.Errorf("transport: loopback sender cannot receive")
}

func (s *loopSender) SetReadDeadline(time.Time) error { return nil }

func (s *loopSender) Close() error {
	s.closed.Store(true)
	return nil
}

func (s *loopSender) LocalAddr() string { return "loopback(sender)" }

// loopConn is a receiving endpoint: a bounded queue behind a loss model
// — a core.Channel, for ReceiverStepper endpoints a channel.Chain.
type loopConn struct {
	hub   *Loopback
	queue chan []byte

	chMu sync.Mutex // guards ch: stateful, shared across senders' deliveries
	ch   core.Channel

	closeOnce sync.Once
	closed    chan struct{}
	deadline  *deadline

	dropped atomic.Uint64 // queue-overflow drops (not channel erasures)
	erased  atomic.Uint64 // channel erasures
}

// deliverBatch applies the loss model to a batch under one lock
// acquisition, stepped in up to 64-wide masks, and enqueues the
// surviving (shared, read-only) datagrams, dropping those that find the
// queue full (UDP socket-buffer semantics). The caller guarantees the
// slices are never mutated after broadcast. A stepper endpoint draws the
// same splitmix64 sequence however the datagrams are grouped into
// batches — StepMask's chunking does not change the stream — so the
// loss pattern depends on the datagram order alone.
func (c *loopConn) deliverBatch(datagrams [][]byte) {
	select {
	case <-c.closed:
		return
	default:
	}
	c.chMu.Lock()
	defer c.chMu.Unlock()
	for i := 0; i < len(datagrams); i += 64 {
		n := len(datagrams) - i
		if n > 64 {
			n = 64
		}
		var mask uint64
		if c.ch != nil {
			mask = core.LossMask(c.ch, n)
		}
		for j := 0; j < n; j++ {
			if mask&(1<<uint(j)) != 0 {
				c.erased.Add(1)
				continue
			}
			select {
			case c.queue <- datagrams[i+j]:
			default:
				c.dropped.Add(1)
			}
		}
	}
}

func (c *loopConn) Send([]byte) error {
	return fmt.Errorf("transport: loopback receiver cannot send")
}

func (c *loopConn) WriteBatch([]wire.Datagram) (int, error) {
	return 0, fmt.Errorf("transport: loopback receiver cannot send")
}

func (c *loopConn) Recv(buf []byte) (int, error) {
	for {
		// Drain anything already queued even after close/deadline
		// churn, so no accepted datagram is silently lost.
		select {
		case d := <-c.queue:
			return copy(buf, d), nil
		default:
		}
		expired, changed := c.deadline.channels()
		select {
		case d := <-c.queue:
			return copy(buf, d), nil
		case <-c.closed:
			return 0, fmt.Errorf("transport: loopback receiver: %w", ErrClosed)
		case <-expired:
			return 0, os.ErrDeadlineExceeded
		case <-changed:
			// SetReadDeadline raced with this Recv; re-arm on the
			// new deadline (net.Conn semantics: a deadline change
			// applies to pending reads too).
		}
	}
}

// ReadBatch implements Conn: it blocks for the first datagram with
// Recv's exact deadline/close semantics, then drains whatever else is
// already queued without blocking again.
func (c *loopConn) ReadBatch(bufs []wire.Datagram) (int, error) {
	if len(bufs) == 0 {
		return 0, nil
	}
	n, err := c.Recv(bufs[0])
	if err != nil {
		return 0, err
	}
	bufs[0] = bufs[0][:n]
	filled := 1
	for filled < len(bufs) {
		select {
		case d := <-c.queue:
			bufs[filled] = bufs[filled][:copy(bufs[filled], d)]
			filled++
		default:
			return filled, nil
		}
	}
	return filled, nil
}

func (c *loopConn) SetReadDeadline(t time.Time) error {
	c.deadline.set(t)
	return nil
}

func (c *loopConn) Close() error {
	c.hub.detach(c)
	c.closeLocked()
	return nil
}

func (c *loopConn) closeLocked() {
	c.closeOnce.Do(func() { close(c.closed) })
}

func (c *loopConn) LocalAddr() string { return "loopback(receiver)" }

// Dropped reports datagrams lost to queue overflow (receiver too slow),
// as opposed to channel erasures.
func (c *loopConn) Dropped() uint64 { return c.dropped.Load() }

// Erased reports datagrams removed by the loss model.
func (c *loopConn) Erased() uint64 { return c.erased.Load() }

func (l *Loopback) detach(c *loopConn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, r := range l.receivers {
		if r == c {
			l.receivers = append(l.receivers[:i], l.receivers[i+1:]...)
			return
		}
	}
}

// deadline turns a settable time.Time into a channel that fires when the
// deadline passes, mirroring net.Conn read-deadline semantics for the
// in-memory backend. A second channel signals deadline *changes* so a
// Recv already blocked re-arms on the new value (net.Conn applies
// deadline updates to pending reads).
type deadline struct {
	mu      sync.Mutex
	timer   *time.Timer
	expired chan struct{}
	changed chan struct{}
}

func newDeadline() *deadline {
	return &deadline{changed: make(chan struct{})}
}

// set arms (or clears, for the zero time) the deadline.
func (d *deadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
	close(d.changed)
	d.changed = make(chan struct{})
	if t.IsZero() {
		d.expired = nil
		return
	}
	ch := make(chan struct{})
	d.expired = ch
	delay := time.Until(t)
	if delay <= 0 {
		close(ch)
		return
	}
	d.timer = time.AfterFunc(delay, func() { close(ch) })
}

// channels returns the expiry channel (nil = no deadline = blocks
// forever) and the change-notification channel valid for it.
func (d *deadline) channels() (expired, changed <-chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.expired, d.changed
}
