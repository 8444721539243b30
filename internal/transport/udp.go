package transport

import (
	"errors"
	"fmt"
	"net"
	"syscall"
	"time"

	"fecperf/internal/wire"
)

// udpConn adapts *net.UDPConn to the Conn interface; the batch methods
// and Recv live with the udpBatch state (mmsg_linux.go /
// mmsg_fallback.go). The sender side is a connected socket (unicast,
// broadcast or multicast destination); the receiver side is a bound —
// and, for multicast groups, joined — socket.
type udpConn struct {
	c     *net.UDPConn
	batch udpBatch
}

// DialUDP returns a sending endpoint for addr ("host:port"). A multicast
// group address turns the endpoint into a multicast transmitter; no group
// membership is needed to send.
func DialUDP(addr string) (Conn, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	c, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %q: %w", addr, err)
	}
	u := &udpConn{c: c}
	u.initBatch()
	return u, nil
}

// ListenUDP returns a receiving endpoint bound to addr ("host:port" or
// ":port"). When addr names a multicast group the socket joins it on the
// system-chosen interface, so `feccast recv` works for both unicast and
// multicast sessions with one flag. The socket asks the kernel for UDP
// GRO — coalesced trains per read instead of one datagram — and reads
// exactly as before where the kernel refuses (see mmsg_linux.go).
func ListenUDP(addr string) (Conn, error) { return listenUDP(addr, true) }

// listenUDP is ListenUDP; gro false never asks for UDP GRO — the socket
// a kernel without the option gets, which tests pin beside the probed
// one.
func listenUDP(addr string, gro bool) (Conn, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	var c *net.UDPConn
	if laddr.IP != nil && laddr.IP.IsMulticast() {
		c, err = net.ListenMulticastUDP("udp", nil, laddr)
	} else {
		c, err = net.ListenUDP("udp", laddr)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", addr, err)
	}
	// FEC broadcasts are bursty; absorb what the scheduler hands the
	// kernel between our reads. Best effort — some systems clamp it.
	c.SetReadBuffer(8 << 20) //nolint:errcheck
	u := &udpConn{c: c}
	u.initBatch()
	if gro {
		u.enableGRO()
	}
	return u, nil
}

func (u *udpConn) Send(datagram []byte) error {
	_, err := u.c.Write(datagram)
	// A broadcast is feedback-free: receivers join and leave at will.
	// On a connected unicast socket the kernel surfaces their absence
	// as async ICMP errors (port/host unreachable); swallowing them
	// keeps the carousel running, matching multicast semantics where no
	// such feedback exists.
	if errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EHOSTUNREACH) ||
		errors.Is(err, syscall.ENETUNREACH) {
		return nil
	}
	return err
}

// recvScalar is Recv as one socket read: the next message is the next
// datagram.
func (u *udpConn) recvScalar(buf []byte) (int, error) {
	n, _, err := u.c.ReadFromUDP(buf)
	return n, err
}

// writeBatchScalar is WriteBatch without sendmmsg: one Send per datagram.
func (u *udpConn) writeBatchScalar(batch []wire.Datagram) (int, error) {
	for i, d := range batch {
		if err := u.Send(d); err != nil {
			return i, err
		}
	}
	return len(batch), nil
}

// readBatchScalar is ReadBatch without recvmmsg: it satisfies the batch
// contract (block, fill a prefix, re-slice) with a single Recv.
func (u *udpConn) readBatchScalar(bufs []wire.Datagram) (int, error) {
	if len(bufs) == 0 {
		return 0, nil
	}
	n, err := u.recvScalar(bufs[0])
	if err != nil {
		return 0, err
	}
	bufs[0] = bufs[0][:n]
	return 1, nil
}

func (u *udpConn) SetReadDeadline(t time.Time) error {
	return u.c.SetReadDeadline(t)
}

func (u *udpConn) Close() error {
	err := u.c.Close()
	u.batch.release()
	return err
}

func (u *udpConn) LocalAddr() string { return u.c.LocalAddr().String() }
