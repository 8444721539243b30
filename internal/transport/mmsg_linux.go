//go:build linux && (amd64 || arm64)

// Kernel-batched UDP datapath: sendmmsg/recvmmsg plus UDP generic
// segmentation offload (GSO), straight on the raw syscalls — the stdlib
// syscall package has Msghdr/Iovec/cmsg plumbing but froze before the
// mmsg calls, so the struct mmsghdr and the syscall numbers
// (mmsg_sysnum_*.go) live here.
//
// The shape of the win: Send pays one write(2) per datagram
// (~1-2µs of mode switches and UDP stack entry each). sendmmsg moves up
// to 64 headers per crossing, and GSO collapses a run of equal-size
// datagrams into ONE header the kernel segments after the socket-layer
// work is done — so a 64-packet carousel batch costs one syscall and
// one qdisc traversal. GSO support is probed per socket at dial time
// (UDP_SEGMENT dates to Linux 4.18) and degrades at runtime: a kernel
// or NIC that rejects a segmented send disables GSO on that conn and
// the batch is retried as plain sendmmsg, which itself degrades to the
// portable per-datagram path only on platforms without the syscalls
// (mmsg_fallback.go).

package transport

import (
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"

	"fecperf/internal/wire"
)

const (
	// solUDP/udpSegment are SOL_UDP and the UDP_SEGMENT socket option /
	// cmsg type (Linux 4.18+); the frozen syscall package predates them.
	solUDP     = 17
	udpSegment = 103

	// maxMsgs bounds mmsghdrs per sendmmsg/recvmmsg crossing and
	// maxWriteDgrams the datagrams one send crossing may cover (a GSO
	// header absorbs a whole run, so 64 headers can carry far more than
	// 64 datagrams; the cap keeps the iovec scratch bounded).
	maxMsgs        = 64
	maxWriteDgrams = 256

	// maxGSOSegs is the kernel's UDP_MAX_SEGMENTS; maxGSOBytes keeps a
	// segmented super-datagram under the 64 KiB IP length limit with
	// headroom for headers.
	maxGSOSegs  = 64
	maxGSOBytes = 63 << 10
)

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit Linux: a msghdr
// plus the per-message byte count sendmmsg/recvmmsg fill in. Go pads
// the struct to 8-byte alignment exactly as the kernel ABI does.
type mmsghdr struct {
	hdr  syscall.Msghdr
	nrcv uint32
	_    [4]byte
}

// udpBatch is the per-conn state of the batched datapath: the raw fd
// handle, the GSO capability bit, and reusable syscall scratch (headers,
// iovecs, cmsg buffers) so steady-state batch I/O allocates nothing.
// Write and read scratch are guarded separately, preserving the Conn
// contract that sends and a blocking receive may overlap.
type udpBatch struct {
	raw syscall.RawConn
	gso atomic.Bool // probed at dial, cleared on a rejected GSO send

	wmu   sync.Mutex
	wiovs []syscall.Iovec
	wmsgs []mmsghdr
	wsegs []int    // datagrams covered by wmsgs[i]
	woob  [][]byte // one UDP_SEGMENT cmsg buffer per header slot

	rmu   sync.Mutex
	riovs []syscall.Iovec
	rmsgs []mmsghdr
}

// initBatch wires the batched datapath onto a freshly built conn and
// probes GSO support (a zero UDP_SEGMENT setsockopt succeeds exactly
// when the kernel knows the option).
func (u *udpConn) initBatch() {
	raw, err := u.c.SyscallConn()
	if err != nil {
		return // batch calls fall back to the scalar loop
	}
	u.batch.raw = raw
	gso := false
	ctlErr := raw.Control(func(fd uintptr) {
		gso = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil
	})
	u.batch.gso.Store(ctlErr == nil && gso)
}

// GSOEnabled reports whether batched writes on this conn currently use
// UDP generic segmentation offload. It starts at the dial-time probe
// result and latches false if the kernel ever rejects a segmented send.
func (u *udpConn) GSOEnabled() bool { return u.batch.gso.Load() }

// WriteBatch implements Conn via sendmmsg, coalescing runs of
// equal-size datagrams into single GSO headers when the socket supports
// it. Async ICMP errors are swallowed per datagram run, matching Send.
func (u *udpConn) WriteBatch(batch []wire.Datagram) (int, error) {
	if len(batch) == 0 {
		return 0, nil
	}
	b := &u.batch
	// A lone datagram gains nothing from the mmsg header set-up: plain
	// write(2) is ~25% cheaper (1.2 vs 1.5 µs at 1 KiB).
	if b.raw == nil || len(batch) == 1 {
		return u.writeBatchScalar(batch)
	}
	b.wmu.Lock()
	defer b.wmu.Unlock()
	sent := 0
	for sent < len(batch) {
		n, err := u.writeSome(batch[sent:])
		sent += n
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// writeSome builds one sendmmsg crossing from the front of batch and
// returns how many datagrams it disposed of (sent or, for swallowed
// ICMP feedback, dropped — Send's semantics). A zero count with a nil
// error means "retry" (the GSO path was just disabled).
func (u *udpConn) writeSome(batch []wire.Datagram) (int, error) {
	b := &u.batch
	gso := b.gso.Load()

	// Pass 1: one iovec per datagram, grouped into runs that share a
	// header. A run is either a single datagram or, under GSO, up to
	// maxGSOSegs equal-length datagrams totalling at most maxGSOBytes.
	b.wiovs = b.wiovs[:0]
	b.wsegs = b.wsegs[:0]
	dgrams := 0
	for dgrams < len(batch) && len(b.wsegs) < maxMsgs && dgrams < maxWriteDgrams {
		d := batch[dgrams]
		run := 1
		if gso && len(d) > 0 && len(d) <= maxGSOBytes {
			maxRun := maxGSOBytes / len(d)
			if maxRun > maxGSOSegs {
				maxRun = maxGSOSegs
			}
			for run < maxRun && dgrams+run < len(batch) &&
				dgrams+run < maxWriteDgrams &&
				len(batch[dgrams+run]) == len(d) {
				run++
			}
		}
		for i := 0; i < run; i++ {
			seg := batch[dgrams+i]
			iov := syscall.Iovec{Len: uint64(len(seg))}
			if len(seg) > 0 {
				iov.Base = &seg[0]
			}
			b.wiovs = append(b.wiovs, iov)
		}
		b.wsegs = append(b.wsegs, run)
		dgrams += run
	}

	// Pass 2: headers over stable iovec memory. A multi-segment run
	// carries a UDP_SEGMENT cmsg telling the kernel where to cut.
	b.wmsgs = b.wmsgs[:0]
	gsoUsed := false
	iov := 0
	for i, run := range b.wsegs {
		var m mmsghdr
		m.hdr.Iov = &b.wiovs[iov]
		m.hdr.Iovlen = uint64(run)
		if run > 1 {
			gsoUsed = true
			oob := b.oobFor(i, uint16(len(batch[iov])))
			m.hdr.Control = &oob[0]
			m.hdr.SetControllen(len(oob))
		}
		b.wmsgs = append(b.wmsgs, m)
		iov += run
	}

	done := 0 // datagrams disposed of
	hdr := 0  // headers handed to the kernel
	for hdr < len(b.wmsgs) {
		var n uintptr
		var errno syscall.Errno
		werr := b.raw.Write(func(fd uintptr) bool {
			n, _, errno = syscall.Syscall6(sysSENDMMSG, fd,
				uintptr(unsafe.Pointer(&b.wmsgs[hdr])),
				uintptr(len(b.wmsgs)-hdr), 0, 0, 0)
			return errno != syscall.EAGAIN
		})
		if werr != nil {
			return done, werr
		}
		switch errno {
		case 0:
			for i := 0; i < int(n); i++ {
				done += b.wsegs[hdr+i]
			}
			hdr += int(n)
		case syscall.EINTR:
			// retry the same position
		case syscall.ECONNREFUSED, syscall.EHOSTUNREACH, syscall.ENETUNREACH:
			// Async ICMP feedback on a connected socket: the kernel
			// reports a receiver's absence and drops the head message.
			// A broadcast is feedback-free — swallow it and move on,
			// exactly as Send does.
			done += b.wsegs[hdr]
			hdr++
		case syscall.EINVAL, syscall.EIO, syscall.EOPNOTSUPP, syscall.EMSGSIZE:
			if gsoUsed {
				// The kernel (or the path's NIC) rejected a segmented
				// send: latch GSO off and let the caller rebuild this
				// crossing as plain sendmmsg.
				b.gso.Store(false)
				return done, nil
			}
			return done, errno
		default:
			return done, errno
		}
	}
	return done, nil
}

// oobFor returns header slot i's reusable UDP_SEGMENT cmsg buffer,
// filled for the given segment size.
func (b *udpBatch) oobFor(i int, segSize uint16) []byte {
	for len(b.woob) <= i {
		b.woob = append(b.woob, make([]byte, syscall.CmsgSpace(2)))
	}
	oob := b.woob[i]
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	h.Level = solUDP
	h.Type = udpSegment
	h.SetLen(syscall.CmsgLen(2))
	*(*uint16)(unsafe.Pointer(&oob[syscall.CmsgLen(0)])) = segSize
	return oob
}

// ReadBatch implements Conn via recvmmsg: it parks on the runtime
// poller until the socket is readable (honouring the read deadline and
// Close exactly like Recv), then drains up to len(bufs) datagrams in
// one crossing.
func (u *udpConn) ReadBatch(bufs []wire.Datagram) (int, error) {
	if len(bufs) == 0 {
		return 0, nil
	}
	b := &u.batch
	if b.raw == nil {
		return u.readBatchScalar(bufs)
	}
	b.rmu.Lock()
	defer b.rmu.Unlock()
	n := len(bufs)
	if n > maxMsgs {
		n = maxMsgs
	}
	b.riovs = b.riovs[:0]
	b.rmsgs = b.rmsgs[:0]
	for i := 0; i < n; i++ {
		iov := syscall.Iovec{Len: uint64(len(bufs[i]))}
		if len(bufs[i]) > 0 {
			iov.Base = &bufs[i][0]
		}
		b.riovs = append(b.riovs, iov)
	}
	for i := 0; i < n; i++ {
		var m mmsghdr
		m.hdr.Iov = &b.riovs[i]
		m.hdr.Iovlen = 1
		b.rmsgs = append(b.rmsgs, m)
	}
	var got uintptr
	for {
		var errno syscall.Errno
		rerr := b.raw.Read(func(fd uintptr) bool {
			got, _, errno = syscall.Syscall6(sysRECVMMSG, fd,
				uintptr(unsafe.Pointer(&b.rmsgs[0])),
				uintptr(n), syscall.MSG_DONTWAIT, 0, 0)
			return errno != syscall.EAGAIN
		})
		if rerr != nil {
			return 0, rerr
		}
		if errno == syscall.EINTR {
			continue
		}
		if errno != 0 {
			return 0, errno
		}
		break
	}
	for i := 0; i < int(got); i++ {
		bufs[i] = bufs[i][:b.rmsgs[i].nrcv]
	}
	return int(got), nil
}
