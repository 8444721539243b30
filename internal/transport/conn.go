// Package transport moves fecperf datagrams across real networks. It is
// the deployment layer the reproduced paper assumes (FLUTE/ALC content
// broadcasting): the session package produces self-describing datagrams,
// and this package carries them — over UDP/UDP-multicast sockets or over
// an in-memory loopback whose deliveries are filtered by any core.Channel,
// so every impairment the simulator supports (Gilbert bursts, Bernoulli
// loss, recorded traces) becomes a live network scenario.
//
// The package has three moving parts:
//
//   - Conn: a minimal datagram endpoint (Send / Recv / deadline / Close)
//     with two backends, UDP (udp.go) and the lossy loopback (loopback.go);
//   - Sender: a rate-limited carousel that streams encoded objects in
//     rounds, re-scheduling each round with one of the paper's
//     transmission models (sender.go);
//   - ReceiverDaemon: a demultiplexing reassembly loop with bounded
//     memory and atomic statistics (receiver.go).
package transport

import (
	"errors"
	"net"
	"time"

	"fecperf/internal/wire"
)

// ErrClosed is returned by Send and Recv after the endpoint is closed.
// UDP conns surface the identical net.ErrClosed, so errors.Is works
// uniformly across backends.
var ErrClosed = net.ErrClosed

// Conn is a datagram endpoint. Implementations must be safe for
// concurrent use: multiple goroutines may Send while another blocks in
// Recv, and Close must unblock pending Recv calls.
type Conn interface {
	// Send transmits one datagram. Like UDP, delivery is best-effort:
	// packets may be dropped (full receiver queues, lossy channels)
	// without an error. Send must not retain datagram after returning
	// (both backends copy), so callers may reuse or release the memory
	// behind it — the carousel sender hands in views of its objects'
	// frame slabs.
	Send(datagram []byte) error
	// Recv blocks for the next datagram and copies it into buf,
	// returning its length. Datagrams longer than buf are truncated,
	// exactly like a UDP socket read. It returns ErrClosed once the
	// endpoint is closed and a net.Error with Timeout()==true when the
	// read deadline passes.
	Recv(buf []byte) (int, error)
	// SetReadDeadline bounds future (and pending) Recv calls. The zero
	// time means no deadline.
	SetReadDeadline(t time.Time) error
	// Close releases the endpoint and unblocks pending Recv calls.
	Close() error
	// LocalAddr describes the endpoint for logs and errors.
	LocalAddr() string
}

// BatchConn is implemented by Conns that can move several datagrams per
// kernel crossing. The UDP backend maps batches onto sendmmsg/recvmmsg
// (with UDP GSO segmentation where the kernel offers it) and the
// loopback backend applies its loss models in 64-wide batched steps, so
// a carousel sender flushing 64-packet batches pays one syscall — and
// one pacer debit, one loss-model lock — where the scalar path paid 64.
//
// Implementations keep the Conn concurrency contract: multiple
// goroutines may call WriteBatch/Send concurrently with a ReadBatch/Recv
// in flight, and batch calls interleave safely (each call's datagrams
// stay in order; datagrams of concurrent calls may interleave).
type BatchConn interface {
	Conn
	// WriteBatch transmits the batch in order and returns how many
	// datagrams were written. Like Send, delivery is best-effort and the
	// datagrams are not retained: callers may reuse the backing buffers
	// as soon as WriteBatch returns. A short count is always paired with
	// a non-nil error.
	WriteBatch(batch []wire.Datagram) (int, error)
	// ReadBatch blocks for at least one datagram, fills as many of the
	// caller's buffers as can be had without blocking again, re-slices
	// each filled bufs[i] to its datagram's length, and returns the
	// filled count. Datagrams longer than their buffer are truncated,
	// exactly like Recv. Errors follow Recv: ErrClosed after Close, a
	// timeout net.Error on read-deadline expiry. n > 0 implies err ==
	// nil.
	ReadBatch(bufs []wire.Datagram) (int, error)
}

// WriteBatch writes the whole batch to c: through one (or few) kernel
// crossings when c implements BatchConn, datagram by datagram otherwise.
// It is the portable write side of the batch contract — callers get the
// batched fast path when the Conn has one and identical behaviour when
// it does not.
func WriteBatch(c Conn, batch []wire.Datagram) (int, error) {
	if bc, ok := c.(BatchConn); ok {
		return bc.WriteBatch(batch)
	}
	return writeBatchScalar(c, batch)
}

// writeBatchScalar is the per-datagram fallback behind WriteBatch, and
// the portable implementation non-batching backends share.
func writeBatchScalar(c Conn, batch []wire.Datagram) (int, error) {
	for i, d := range batch {
		if err := c.Send(d); err != nil {
			return i, err
		}
	}
	return len(batch), nil
}

// ReadBatch fills bufs from c — one recvmmsg-style crossing when c
// implements BatchConn, a single Recv otherwise — and returns the
// filled count. See BatchConn.ReadBatch for the contract.
func ReadBatch(c Conn, bufs []wire.Datagram) (int, error) {
	if bc, ok := c.(BatchConn); ok {
		return bc.ReadBatch(bufs)
	}
	return readBatchScalar(c, bufs)
}

// readBatchScalar is the one-datagram fallback behind ReadBatch: it
// satisfies the batch contract (block, fill a prefix, re-slice) at
// batch size one.
func readBatchScalar(c Conn, bufs []wire.Datagram) (int, error) {
	if len(bufs) == 0 {
		return 0, nil
	}
	n, err := c.Recv(bufs[0])
	if err != nil {
		return 0, err
	}
	bufs[0] = bufs[0][:n]
	return 1, nil
}

// isTimeout reports whether err is a read-deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
