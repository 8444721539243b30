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
//   - Conn: a batch-first datagram endpoint (WriteBatch / ReadBatch /
//     deadline / Close) with two backends, UDP (udp.go) and the lossy
//     loopback (loopback.go);
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

// ErrClosed is returned by reads and writes after the endpoint is
// closed. UDP conns surface the identical net.ErrClosed, so errors.Is
// works uniformly across backends.
var ErrClosed = net.ErrClosed

// Conn is a datagram endpoint that moves several datagrams per call. The
// UDP backend maps batches onto sendmmsg/recvmmsg (with UDP GSO
// segmentation on the way out and UDP GRO trains on the way in where
// the kernel offers them) and the loopback backend applies its loss
// models in 64-wide batched steps, so a carousel sender flushing
// 64-packet batches pays one syscall, one pacer debit and one
// loss-model lock per flush.
//
// Implementations must be safe for concurrent use: multiple goroutines
// may write while another blocks in a read, Close must unblock pending
// reads, and batch calls interleave safely (each call's datagrams stay
// in order; datagrams of concurrent calls may interleave).
type Conn interface {
	// WriteBatch transmits the batch in order and returns how many
	// datagrams were written. Like UDP, delivery is best-effort: packets
	// may be dropped (full receiver queues, lossy channels) without an
	// error. The datagrams are not retained (both backends copy), so
	// callers may reuse or release the memory behind them as soon as
	// WriteBatch returns — the carousel sender hands in views of its
	// objects' frame slabs. A short count is always paired with a
	// non-nil error.
	WriteBatch(batch []wire.Datagram) (int, error)
	// ReadBatch blocks for at least one datagram, fills as many of the
	// caller's buffers as can be had without blocking again, re-slices
	// each filled bufs[i] to its datagram's length, and returns the
	// filled count. Datagrams longer than their buffer are truncated,
	// exactly like a UDP socket read. It returns ErrClosed once the
	// endpoint is closed and a net.Error with Timeout()==true when the
	// read deadline passes. n > 0 implies err == nil.
	//
	// For an implementer: the buffers are the caller's and are filled,
	// never re-pointed. A backend whose reads can return more datagrams
	// than the caller has buffers for (a UDP GRO socket is handed whole
	// trains) copies out of memory of its own and keeps the rest for
	// the next call, which then returns it before it blocks or consults
	// the deadline. A caller sees none of this.
	ReadBatch(bufs []wire.Datagram) (int, error)
	// Recv is the one-datagram convenience over ReadBatch: it copies the
	// next datagram into buf and returns its length.
	Recv(buf []byte) (int, error)
	// SetReadDeadline bounds future (and pending) reads. The zero time
	// means no deadline.
	SetReadDeadline(t time.Time) error
	// Close releases the endpoint and unblocks pending reads.
	Close() error
	// LocalAddr describes the endpoint for logs and errors.
	LocalAddr() string
}

// isTimeout reports whether err is a read-deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
