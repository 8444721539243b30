//go:build linux && (amd64 || arm64)

package transport

import (
	"slices"
	"syscall"
	"testing"
	"unsafe"

	"fecperf/internal/wire"
)

// groMsg is one message as a crossing on a GRO socket leaves it: its
// bytes, and what came back in the control buffer.
type groMsg struct {
	size   int  // bytes received
	seg    int  // UDP_GRO cmsg value; 0: no cmsg at all
	ctrunc bool // MSG_CTRUNC set
	level  int32
}

// pendSynthetic loads msgs into b as if one crossing had received them,
// byte j of message i being byte(i)<<4 | byte(j)&15 … enough to tell
// where every copied byte came from.
func pendSynthetic(b *udpBatch, msgs []groMsg) {
	b.rbufs, b.roob, b.rmsgs = nil, nil, nil
	for i, m := range msgs {
		buf := make([]byte, trainBuf)
		for j := 0; j < m.size; j++ {
			buf[j] = byte(i)<<4 | byte(j)&15
		}
		oob := make([]byte, syscall.CmsgSpace(4))
		var h mmsghdr
		h.nrcv = uint32(m.size)
		if m.seg != 0 {
			c := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
			c.Level, c.Type = solUDP, udpGRO
			if m.level != 0 {
				c.Level = m.level
			}
			c.SetLen(syscall.CmsgLen(4))
			*(*int32)(unsafe.Pointer(&oob[syscall.CmsgLen(0)])) = int32(m.seg)
			h.hdr.SetControllen(syscall.CmsgLen(4))
		}
		if m.ctrunc {
			h.hdr.Flags |= syscall.MSG_CTRUNC
		}
		b.rbufs = append(b.rbufs, buf)
		b.roob = append(b.roob, oob)
		b.rmsgs = append(b.rmsgs, h)
	}
	b.pend(len(msgs))
}

// TestGROSplit drives the splitter over messages no localhost sender
// produces on demand: every row lists what one crossing received, the
// buffers successive reads offer, and the datagram lengths each read
// must return (the bytes are checked against where they should have
// been copied from).
func TestGROSplit(t *testing.T) {
	for _, tc := range []struct {
		name  string
		msgs  []groMsg
		bufs  int   // size of every caller buffer
		reads []int // buffers offered per read
		want  [][]int
	}{
		{"train shorter last segment", []groMsg{{size: 3*200 + 50, seg: 200}}, 512, []int{8},
			[][]int{{200, 200, 200, 50}}},
		{"train longer than bufs, twice", []groMsg{{size: 5 * 100, seg: 100}, {size: 2 * 300, seg: 300}}, 512, []int{2, 2, 2, 2},
			[][]int{{100, 100}, {100, 100}, {100, 300}, {300}}},
		{"no cmsg is one datagram", []groMsg{{size: 900}, {size: 4 * 100, seg: 100}}, 1024, []int{8},
			[][]int{{900, 100, 100, 100, 100}}},
		{"MSG_CTRUNC is one datagram", []groMsg{{size: 900, seg: 300, ctrunc: true}}, 1024, []int{8},
			[][]int{{900}}},
		{"another level's cmsg is one datagram", []groMsg{{size: 900, seg: 300, level: syscall.SOL_SOCKET}}, 1024, []int{8},
			[][]int{{900}}},
		{"negative segment size is one datagram", []groMsg{{size: 900, seg: -5}}, 1024, []int{8},
			[][]int{{900}}},
		{"zero-length datagrams", []groMsg{{size: 0}, {size: 10}, {size: 0}}, 64, []int{2, 2},
			[][]int{{0, 10}, {0}}},
		{"segment longer than the buffer fills it", []groMsg{{size: 3*1064 + 20, seg: 1064}}, 513, []int{3, 3},
			[][]int{{513, 513, 513}, {20}}},
		{"segment size above the message", []groMsg{{size: 700, seg: 1064}}, 1024, []int{4},
			[][]int{{700}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b udpBatch
			pendSynthetic(&b, tc.msgs)
			msg, off := 0, 0 // where the next datagram starts
			for r, offer := range tc.reads {
				bufs := make([]wire.Datagram, offer)
				for i := range bufs {
					bufs[i] = make([]byte, tc.bufs)
				}
				n := b.split(bufs)
				if n != len(tc.want[r]) {
					t.Fatalf("read %d filled %d buffers, want %d", r, n, len(tc.want[r]))
				}
				for i, want := range tc.want[r] {
					if len(bufs[i]) != want {
						t.Fatalf("read %d datagram %d is %d bytes, want %d", r, i, len(bufs[i]), want)
					}
					for j, c := range bufs[i] {
						if c != byte(msg)<<4|byte(off+j)&15 {
							t.Fatalf("read %d datagram %d byte %d is not byte %d of message %d", r, i, j, off+j, msg)
						}
					}
					// Advance by the segment as sent, not as truncated.
					m := tc.msgs[msg]
					step := m.size - off
					if seg := b.rseg[msg]; seg > 0 && seg < step {
						step = seg
					}
					if off += step; off >= m.size {
						msg, off = msg+1, 0
					}
				}
			}
			if n := b.split(make([]wire.Datagram, 1)); n != 0 || msg != len(tc.msgs) {
				t.Fatalf("%d messages consumed of %d; a further read filled %d", msg, len(tc.msgs), n)
			}
		})
	}
}

// TestUDPGROShortLastSegment sends, through a real socket, the one
// train shape WriteBatch never builds: a segmented send whose length is
// not a multiple of the segment size, so the last datagram is shorter.
func TestUDPGROShortLastSegment(t *testing.T) {
	readPaths(t, func(t *testing.T, rx, tx Conn, _ bool) {
		u := tx.(*udpConn)
		if !u.GSOEnabled() {
			t.Skip("this kernel refuses UDP_SEGMENT")
		}
		const seg, tail = 400, 70
		payload := make([]byte, 5*seg+tail)
		for i := range payload {
			payload[i] = byte(i / seg)
		}
		if _, _, err := u.c.WriteMsgUDP(payload, u.batch.oobFor(0, seg), nil); err != nil {
			t.Fatalf("segmented WriteMsgUDP: %v", err)
		}
		var lens []int
		for len(lens) < 6 {
			bufs := readBufs(4, 2048)
			m, err := rx.ReadBatch(bufs)
			if err != nil {
				t.Fatalf("ReadBatch after %v: %v", lens, err)
			}
			for _, d := range bufs[:m] {
				if len(d) > 0 && int(d[0]) != len(lens) {
					t.Fatalf("datagram %d starts with segment %d's bytes", len(lens), d[0])
				}
				lens = append(lens, len(d))
			}
		}
		if want := []int{seg, seg, seg, seg, seg, tail}; !slices.Equal(lens, want) {
			t.Fatalf("datagram lengths %v, want %v", lens, want)
		}
	})
}
