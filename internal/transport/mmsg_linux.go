//go:build linux && (amd64 || arm64)

// Kernel-batched UDP datapath: sendmmsg/recvmmsg plus UDP generic
// segmentation offload on the way out (GSO) and generic receive offload
// on the way in (GRO), straight on the raw syscalls — the stdlib
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
//
// The receive side mirrors it. Without UDP_GRO the kernel cuts every
// train back into one skb per datagram before queueing it, and recvmmsg
// pays the socket-layer work once per datagram. A socket that asked for
// UDP_GRO (Linux 5.0; probed per listening socket, never retried once
// refused) is handed the train whole: one message of up to 64 KiB plus
// a cmsg carrying the segment size. That changes two things for an
// implementer and nothing for a caller. A receive buffer shorter than
// the train silently loses the rest of it, so a GRO conn receives into
// 64 KiB buffers of its own (drawn from the symbol pool as crossings
// fill slots, returned on Close) instead of the caller's; and one
// message is no longer one datagram, so ReadBatch and Recv cut each
// message at the segment size into the caller's buffers by copy and
// keep what did not fit for the next call. The Conn contract holds as
// written: the caller's buffers are filled, never re-pointed, and a
// datagram longer than its buffer is truncated to it.

package transport

import (
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"

	"fecperf/internal/symbol"
	"fecperf/internal/wire"
)

const (
	// solUDP/udpSegment are SOL_UDP and the UDP_SEGMENT socket option /
	// cmsg type (Linux 4.18+), udpGRO the UDP_GRO option / cmsg type
	// (5.0+); the frozen syscall package predates them.
	solUDP     = 17
	udpSegment = 103
	udpGRO     = 104

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

	// trainBuf is the receive buffer of one message slot on a GRO
	// socket: the largest train (and the largest datagram) the kernel can
	// deliver fits, so nothing is ever cut short before the splitter
	// sees it. minTrainSlots is how many slots a GRO read arms before
	// traffic has asked for more.
	trainBuf      = symbol.MaxPooled
	minTrainSlots = 2
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
// handle, the GSO and GRO capability bits, and reusable syscall scratch
// (headers, iovecs, cmsg buffers, the poller callbacks and the fields
// they report through) so steady-state batch I/O allocates nothing.
// Write and read scratch are guarded separately, preserving the Conn
// contract that sends and a blocking receive may overlap.
type udpBatch struct {
	raw syscall.RawConn
	gso atomic.Bool // probed at dial, cleared on a rejected GSO send
	gro bool        // probed at listen, fixed since: reads may return whole trains

	wmu   sync.Mutex
	wiovs []syscall.Iovec
	wmsgs []mmsghdr
	wsegs []int    // datagrams covered by wmsgs[i]
	woob  [][]byte // one UDP_SEGMENT cmsg buffer per header slot
	// One sendmmsg crossing: send hands wmsgs[whdr:] to the kernel and
	// reports through wn/werrno. It is built once — a closure per call
	// would put its captures on the heap every crossing.
	send   func(fd uintptr) bool
	whdr   int
	wn     uintptr
	werrno syscall.Errno

	rmu   sync.Mutex
	riovs []syscall.Iovec
	rmsgs []mmsghdr
	// One recvmmsg crossing over rmsgs[:rn], reported through
	// rgot/rerrno; built once, like send.
	recv   func(fd uintptr) bool
	rn     int
	rgot   uintptr
	rerrno syscall.Errno

	// GRO receive state. Slot i of a crossing receives into rbufs[i]
	// with roob[i] as its control buffer; rarm slots are armed per
	// crossing (fewer when the caller has fewer buffers). What the last
	// crossing received and the caller has not been handed yet — the
	// pending messages rcur..len(rseg)-1, the first from byte roff on —
	// waits in rbufs for the next read.
	rbufs   [][]byte // trainBuf each, from the symbol pool
	roob    [][]byte // one UDP_GRO cmsg buffer per slot
	rseg    []int    // segment size of received message i; 0: one datagram
	rarm    int
	rcur    int
	roff    int
	rclosed bool // Close returned rbufs to the pool
}

// initBatch wires the batched datapath onto a freshly built conn and
// probes GSO support (a zero UDP_SEGMENT setsockopt succeeds exactly
// when the kernel knows the option).
func (u *udpConn) initBatch() {
	raw, err := u.c.SyscallConn()
	if err != nil {
		return // batch calls fall back to the scalar loop
	}
	b := &u.batch
	b.raw = raw
	b.send, b.recv = b.sendmmsg, b.recvmmsg
	b.rarm = minTrainSlots
	gso := false
	ctlErr := raw.Control(func(fd uintptr) {
		gso = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil
	})
	b.gso.Store(ctlErr == nil && gso)
}

// enableGRO asks the kernel to hand this socket coalesced trains. The
// setsockopt is the probe: a kernel that predates UDP_GRO (or a seccomp
// profile that filters it) refuses, and the conn keeps reading one
// datagram per message into the caller's buffers.
func (u *udpConn) enableGRO() {
	b := &u.batch
	if b.raw == nil {
		return
	}
	gro := false
	ctlErr := b.raw.Control(func(fd uintptr) {
		gro = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
	})
	b.gro = ctlErr == nil && gro
}

// GSOEnabled reports whether batched writes on this conn currently use
// UDP generic segmentation offload. It starts at the dial-time probe
// result and latches false if the kernel ever rejects a segmented send.
func (u *udpConn) GSOEnabled() bool { return u.batch.gso.Load() }

// GROEnabled reports whether the kernel hands this conn coalesced
// trains (UDP_GRO accepted at listen time), which ReadBatch and Recv
// cut back into datagrams.
func (u *udpConn) GROEnabled() bool { return u.batch.gro }

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
		b.whdr = hdr
		if werr := b.raw.Write(b.send); werr != nil {
			return done, werr
		}
		switch b.werrno {
		case 0:
			for i := 0; i < int(b.wn); i++ {
				done += b.wsegs[hdr+i]
			}
			hdr += int(b.wn)
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
			return done, b.werrno
		default:
			return done, b.werrno
		}
	}
	return done, nil
}

// sendmmsg is the poller callback of one write crossing (udpBatch.send).
func (b *udpBatch) sendmmsg(fd uintptr) bool {
	b.wn, _, b.werrno = syscall.Syscall6(sysSENDMMSG, fd,
		uintptr(unsafe.Pointer(&b.wmsgs[b.whdr])),
		uintptr(len(b.wmsgs)-b.whdr), 0, 0, 0)
	return b.werrno != syscall.EAGAIN
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
// Close exactly like Recv), then takes up to len(bufs) queued messages
// in one crossing. On a GRO socket a message may be a whole train and
// the messages are cut into bufs (see read).
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
	return b.read(bufs)
}

// Recv implements Conn. On a GRO socket the next datagram may be the
// middle of a train a ReadBatch left behind, or the head of one no
// plain read could hold, so it is a one-buffer batch through the same
// splitter; otherwise it is the socket read it always was.
func (u *udpConn) Recv(buf []byte) (int, error) {
	b := &u.batch
	if !b.gro {
		return u.recvScalar(buf)
	}
	b.rmu.Lock()
	defer b.rmu.Unlock()
	one := [1]wire.Datagram{buf}
	if _, err := b.read(one[:]); err != nil {
		return 0, err
	}
	return len(one[0]), nil
}

// read is the one recvmmsg routine, under rmu. Without GRO the iovecs
// point at the caller's buffers and a message is a datagram. With it
// they point at the conn's train buffers, as many as rarm allows, and
// split cuts what arrived into bufs; a call that finds datagrams
// carried over from the last crossing returns those and makes none.
//
// rarm starts at minTrainSlots and doubles whenever a crossing was
// handed single datagrams only, one in every armed slot, and so left
// the caller's buffers short: traffic that arrives uncoalesced (a
// batch=1 sender, a path with no GRO in front of the socket) earns a
// slot per caller buffer within a few reads, while a socket fed only
// trains never holds more than the two buffers it started with.
func (b *udpBatch) read(bufs []wire.Datagram) (int, error) {
	gro := b.gro
	n := min(len(bufs), maxMsgs)
	if gro {
		if carried := b.split(bufs); carried > 0 {
			return carried, nil
		}
		if b.rclosed {
			return 0, ErrClosed
		}
		n = min(n, b.rarm)
		for len(b.rbufs) < n {
			b.rbufs = append(b.rbufs, symbol.GetDirty(trainBuf))
			b.roob = append(b.roob, make([]byte, syscall.CmsgSpace(4)))
		}
	}
	b.riovs = b.riovs[:0]
	b.rmsgs = b.rmsgs[:0]
	for i := 0; i < n; i++ {
		dst := bufs[i]
		if gro {
			dst = b.rbufs[i]
		}
		iov := syscall.Iovec{Len: uint64(len(dst))}
		if len(dst) > 0 {
			iov.Base = &dst[0]
		}
		b.riovs = append(b.riovs, iov)
	}
	for i := 0; i < n; i++ {
		var m mmsghdr
		m.hdr.Iov = &b.riovs[i]
		m.hdr.Iovlen = 1
		if gro {
			m.hdr.Control = &b.roob[i][0]
			m.hdr.SetControllen(len(b.roob[i]))
		}
		b.rmsgs = append(b.rmsgs, m)
	}
	b.rn = n
	for {
		if rerr := b.raw.Read(b.recv); rerr != nil {
			return 0, rerr
		}
		if b.rerrno == syscall.EINTR {
			continue
		}
		if b.rerrno != 0 {
			return 0, b.rerrno
		}
		break
	}
	got := int(b.rgot)
	if !gro {
		for i := 0; i < got; i++ {
			bufs[i] = bufs[i][:b.rmsgs[i].nrcv]
		}
		return got, nil
	}
	trains := b.pend(got)
	filled := b.split(bufs)
	if got == n && filled < len(bufs) && !trains && b.rarm < maxMsgs {
		b.rarm *= 2
	}
	return filled, nil
}

// recvmmsg is the poller callback of one read crossing (udpBatch.recv).
func (b *udpBatch) recvmmsg(fd uintptr) bool {
	b.rgot, _, b.rerrno = syscall.Syscall6(sysRECVMMSG, fd,
		uintptr(unsafe.Pointer(&b.rmsgs[0])),
		uintptr(b.rn), syscall.MSG_DONTWAIT, 0, 0)
	return b.rerrno != syscall.EAGAIN
}

// pend makes the first got messages of the crossing just made the
// pending ones, each with the segment size its cmsg carries, and
// reports whether any of them carried one.
func (b *udpBatch) pend(got int) (trains bool) {
	b.rseg = b.rseg[:0]
	for i := 0; i < got; i++ {
		seg := groSegSize(&b.rmsgs[i].hdr, b.roob[i])
		b.rseg = append(b.rseg, seg)
		trains = trains || seg > 0
	}
	b.rcur, b.roff = 0, 0
	return trains
}

// groSegSize returns the segment size a received message's UDP_GRO cmsg
// carries, or 0 when the message is one datagram: the kernel attaches
// the cmsg to coalesced skbs only, and control data that arrived cut
// short (MSG_CTRUNC) says nothing that can be trusted.
func groSegSize(h *syscall.Msghdr, oob []byte) int {
	if h.Flags&syscall.MSG_CTRUNC != 0 || int(h.Controllen) < syscall.CmsgLen(4) {
		return 0
	}
	c := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	if c.Level != solUDP || c.Type != udpGRO || int(c.Len) < syscall.CmsgLen(4) {
		return 0
	}
	return int(*(*int32)(unsafe.Pointer(&oob[syscall.CmsgLen(0)])))
}

// split copies pending datagrams, in arrival order, into bufs — each
// re-sliced to what it received, a segment longer than its buffer
// filling it exactly as a short buffer truncates a datagram read
// straight off the socket — and returns how many it filled. Message i
// is cut every rseg[i] bytes (its last segment may be shorter); a
// message without a segment size, an empty one included, is one
// datagram.
func (b *udpBatch) split(bufs []wire.Datagram) int {
	filled := 0
	for filled < len(bufs) && b.rcur < len(b.rseg) {
		msg := b.rbufs[b.rcur][:b.rmsgs[b.rcur].nrcv]
		end := len(msg)
		if seg := b.rseg[b.rcur]; seg > 0 && b.roff+seg < end {
			end = b.roff + seg
		}
		bufs[filled] = bufs[filled][:copy(bufs[filled], msg[b.roff:end])]
		filled++
		b.roff = end
		if end == len(msg) {
			b.rcur++
			b.roff = 0
		}
	}
	return filled
}

// release returns the train buffers to the symbol pool and drops what
// was carried over; reads that follow report ErrClosed. Close calls it
// after closing the socket, which is what wakes a reader parked in a
// crossing and makes it let go of rmu.
func (b *udpBatch) release() {
	b.rmu.Lock()
	defer b.rmu.Unlock()
	symbol.PutAll(b.rbufs)
	b.rbufs, b.rseg = nil, nil
	b.rclosed = true
}
