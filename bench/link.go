package main

import (
	"encoding/binary"
	"errors"
	"os"
	"sync"
	"time"

	"fecperf"
	"fecperf/internal/wire"
)

// linkDepth is the link's queue depth in datagrams, the same as the
// transport loopback's default queue.
const linkDepth = 1024

// linkRxWake is how many datagrams must be queued before a sleeping
// reader is woken, and half of linkDepth must be free before a blocked
// writer is: the link coalesces wake-ups the way a NIC coalesces
// interrupts and a socket applies its write-space low-water mark.
// Waking the slower side's peer for every single datagram makes the
// run-to-run spread of a closed-loop repetition several times wider.
// A writer that goes quiet must flush, or the reader may sleep on a
// short tail.
const linkRxWake = 64

// linkMTU is the slot size; every workload's datagram (header + symbol)
// fits with room to spare.
const linkMTU = 2048

// link is the harness's datagram pipe between one Caster and one
// Collector. Unlike the transport loopback it blocks the writer when
// the queue is full instead of dropping, which makes a run a closed
// loop: goodput is the highest rate the pair sustains with no overflow
// loss, the datagram sequence is a pure function of the seed, and the
// time each side spends waiting on the other is visible from outside.
//
// Loss is a seeded Gilbert chain stepped once per written datagram, in
// write order. Datagrams of the protect object (the train manifest:
// two datagrams with no FEC group around them) step the chain but are
// never erased — at the workloads' loss rate a train would otherwise
// lose its manifest in a few percent of repetitions and fail by
// construction.
//
// All slots are allocated up front: the link allocates nothing while a
// repetition runs, so an allocation delta measured around a run is the
// program's.
type link struct {
	mu        sync.Mutex
	notEmpty  sync.Cond
	notFull   sync.Cond
	slots     []byte // linkDepth slots of linkMTU bytes
	lens      [linkDepth]int
	head, n   int
	txWaiting int
	rxWaiting int

	rxClosed, txClosed bool
	deadline           time.Time
	timer              *time.Timer

	loss    fecperf.ChannelStepper
	state   uint64
	lost    bool
	protect uint32
	corrupt int64 // test hook: flip a payload byte of the corrupt-th delivered datagram (0 = never)

	stats linkStats
	rec   *arrivalLog
}

// linkStats is what the link saw from outside the program.
type linkStats struct {
	TxDatagrams uint64 // datagrams written (erased and delivered)
	TxBatches   uint64 // Send and WriteBatch calls
	Erased      uint64 // datagrams the loss chain removed
	RxDatagrams uint64 // datagrams read
	RxBatches   uint64 // Recv and ReadBatch calls that returned data
	TxBlockedNS int64  // writer waiting for queue space: the receiver is the bottleneck
	RxWaitNS    int64  // reader waiting for data: the sender is the bottleneck
}

// arrivalLog records, for the first objects of a train, the order in
// which their datagrams reached the reader — the input of the replay.
type arrivalLog struct {
	base    uint32 // train base object ID; chunk i is base+1+i
	objects uint32 // chunks recorded
	ids     []uint64
}

func (a *arrivalLog) note(obj, pkt uint32) {
	if i := obj - a.base - 1; i < a.objects {
		a.ids = append(a.ids, uint64(i)<<32|uint64(pkt))
	}
}

// newLink returns a link whose loss process is the channel spec (""
// for a lossless link) seeded with seed.
func newLink(lossSpec string, seed int64, protect uint32) (*link, error) {
	l := &link{slots: make([]byte, linkDepth*linkMTU), state: uint64(seed), protect: protect}
	l.notEmpty.L = &l.mu
	l.notFull.L = &l.mu
	if lossSpec != "" {
		st, ok, err := fecperf.NewBatchImpairment(lossSpec)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, errors.New("link: channel " + lossSpec + " cannot be batch-stepped")
		}
		l.loss = st
	}
	return l, nil
}

// headerIDs reads the object and packet IDs from a datagram's fixed
// header offsets (see internal/wire) without the checksum pass a full
// parse costs; the link sits on the hot path of every datagram.
func headerIDs(d []byte) (obj, pkt uint32) {
	if len(d) < wire.HeaderLen {
		return 0, 0
	}
	return binary.BigEndian.Uint32(d[8:]), binary.BigEndian.Uint32(d[12:])
}

// write moves one batch through the loss chain into the queue, blocking
// while it is full. mu is held by the caller.
func (l *link) write(batch []wire.Datagram) error {
	l.stats.TxBatches++
	for len(batch) > 0 {
		n := len(batch)
		if n > 64 {
			n = 64
		}
		mask := l.loss.StepMask(&l.state, &l.lost, n)
		for j, d := range batch[:n] {
			if l.txClosed {
				return fecperf.ErrTransportClosed
			}
			l.stats.TxDatagrams++
			if mask>>uint(j)&1 == 1 {
				if obj, _ := headerIDs(d); obj != l.protect {
					l.stats.Erased++
					continue
				}
			}
			if l.n == linkDepth && !l.rxClosed {
				t0 := time.Now()
				for l.n == linkDepth && !l.rxClosed && !l.txClosed {
					l.txWaiting++
					l.notFull.Wait()
					l.txWaiting--
				}
				l.stats.TxBlockedNS += time.Since(t0).Nanoseconds()
				if l.txClosed {
					return fecperf.ErrTransportClosed
				}
			}
			if l.rxClosed {
				// Nobody listens any more: like a datagram socket, the
				// write succeeds and the datagram is gone.
				continue
			}
			tail := (l.head + l.n) % linkDepth
			slot := l.slots[tail*linkMTU : (tail+1)*linkMTU]
			l.lens[tail] = copy(slot, d)
			l.n++
			if l.rxWaiting > 0 && l.n >= linkRxWake {
				l.notEmpty.Broadcast()
			}
		}
		batch = batch[n:]
	}
	return nil
}

// read fills bufs from the queue, blocking for the first datagram only.
func (l *link) read(bufs []wire.Datagram) (int, error) {
	if len(bufs) == 0 {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		t0 := time.Now()
		for l.n == 0 {
			if l.rxClosed {
				return 0, fecperf.ErrTransportClosed
			}
			if !l.deadline.IsZero() && !time.Now().Before(l.deadline) {
				return 0, os.ErrDeadlineExceeded
			}
			l.rxWaiting++
			l.notEmpty.Wait()
			l.rxWaiting--
		}
		l.stats.RxWaitNS += time.Since(t0).Nanoseconds()
	}
	if l.rxClosed {
		return 0, fecperf.ErrTransportClosed
	}
	filled := 0
	for filled < len(bufs) && l.n > 0 {
		slot := l.slots[l.head*linkMTU : l.head*linkMTU+l.lens[l.head]]
		m := copy(bufs[filled], slot)
		bufs[filled] = bufs[filled][:m]
		l.stats.RxDatagrams++
		if l.corrupt != 0 && int64(l.stats.RxDatagrams) == l.corrupt && m > wire.HeaderLen {
			bufs[filled][wire.HeaderLen] ^= 0x5a
		}
		if l.rec != nil {
			l.rec.note(headerIDs(slot))
		}
		l.head = (l.head + 1) % linkDepth
		l.n--
		filled++
	}
	l.stats.RxBatches++
	// Wake a blocked writer only once half the queue is free, the way a
	// socket's write-space low-water mark does: waking it for every
	// freed slot would spend the run in wake-ups.
	if l.txWaiting > 0 && l.n <= linkDepth/2 {
		l.notFull.Broadcast()
	}
	return filled, nil
}

func (l *link) setReadDeadline(t time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.deadline = t
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	if d := time.Until(t); !t.IsZero() && d > 0 {
		l.timer = time.AfterFunc(d, func() {
			l.mu.Lock()
			l.notEmpty.Broadcast()
			l.mu.Unlock()
		})
	}
	l.notEmpty.Broadcast()
}

// closeRx ends reading: pending and future reads fail, blocked and
// future writes succeed into the void.
func (l *link) closeRx() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rxClosed = true
	if l.timer != nil {
		l.timer.Stop()
	}
	l.notEmpty.Broadcast()
	l.notFull.Broadcast()
}

// closeTx ends writing: blocked and future writes fail, and the reader
// is woken for whatever is still queued.
func (l *link) closeTx() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.txClosed = true
	l.notFull.Broadcast()
	l.notEmpty.Broadcast()
}

// flush wakes a sleeping reader for a queue shorter than linkRxWake.
func (l *link) flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.notEmpty.Broadcast()
}

func (l *link) snapshot() linkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// linkTx and linkRx are the link's two endpoints. Both carry the whole
// datagram-endpoint method set (scalar and batch), so the harness keeps
// compiling whichever of the two the transport's Conn contract keeps.
type (
	linkTx struct{ l *link }
	linkRx struct{ l *link }
)

var errWrongEnd = errors.New("link: operation on the wrong endpoint")

func (t linkTx) Send(d []byte) error {
	t.l.mu.Lock()
	defer t.l.mu.Unlock()
	one := [1]wire.Datagram{d}
	return t.l.write(one[:])
}

func (t linkTx) WriteBatch(batch []wire.Datagram) (int, error) {
	t.l.mu.Lock()
	defer t.l.mu.Unlock()
	if err := t.l.write(batch); err != nil {
		return 0, err
	}
	return len(batch), nil
}

func (t linkTx) Recv([]byte) (int, error)                { return 0, errWrongEnd }
func (t linkTx) ReadBatch([]wire.Datagram) (int, error)  { return 0, errWrongEnd }
func (t linkTx) SetReadDeadline(time.Time) error         { return nil }
func (t linkTx) Close() error                            { t.l.closeTx(); return nil }
func (t linkTx) LocalAddr() string                       { return "bench-link(tx)" }
func (r linkRx) Send([]byte) error                       { return errWrongEnd }
func (r linkRx) WriteBatch([]wire.Datagram) (int, error) { return 0, errWrongEnd }
func (r linkRx) SetReadDeadline(t time.Time) error       { r.l.setReadDeadline(t); return nil }
func (r linkRx) Close() error                            { r.l.closeRx(); return nil }
func (r linkRx) LocalAddr() string                       { return "bench-link(rx)" }

func (r linkRx) Recv(buf []byte) (int, error) {
	one := [1]wire.Datagram{buf}
	if _, err := r.l.read(one[:]); err != nil {
		return 0, err
	}
	return len(one[0]), nil
}

func (r linkRx) ReadBatch(bufs []wire.Datagram) (int, error) { return r.l.read(bufs) }
