//go:build !(linux && (amd64 || arm64))

package transport

import "fecperf/internal/wire"

// Portable batch datapath: platforms without sendmmsg/recvmmsg (or
// where the mmsghdr ABI here isn't vetted) satisfy the Conn batch
// contract with the per-datagram loops, so callers program against one
// API and the build tags decide how many syscalls it costs.

// udpBatch has no portable state.
type udpBatch struct{}

func (u *udpConn) initBatch() {}

func (u *udpConn) enableGRO() {}

func (b *udpBatch) release() {}

// GSOEnabled reports false: UDP generic segmentation offload is a
// Linux-only socket feature.
func (u *udpConn) GSOEnabled() bool { return false }

// GROEnabled reports false: no socket here hands up coalesced trains,
// so a message read is always one datagram.
func (u *udpConn) GROEnabled() bool { return false }

// Recv implements Conn with one socket read.
func (u *udpConn) Recv(buf []byte) (int, error) { return u.recvScalar(buf) }

// WriteBatch implements Conn with one write(2) per datagram.
func (u *udpConn) WriteBatch(batch []wire.Datagram) (int, error) {
	return u.writeBatchScalar(batch)
}

// ReadBatch implements Conn with a single Recv.
func (u *udpConn) ReadBatch(bufs []wire.Datagram) (int, error) {
	return u.readBatchScalar(bufs)
}
