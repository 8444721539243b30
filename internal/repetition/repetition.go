// Package repetition implements the trivial "send every packet x times"
// scheme the paper uses in Section 4.2 to motivate FEC: there is no
// encoding at all, so the receiver needs every one of the k source packets
// to survive at least once. Combined with sched.Repeat it reproduces
// Figure 7, which shows that repetition only works on a loss-free channel
// and even then wastes half the transmission.
package repetition

import (
	"fmt"

	"fecperf/internal/core"
)

// Code is the degenerate no-FEC "code": k source packets, no parity.
type Code struct {
	layout core.Layout
}

// New returns a replication code over k source packets.
func New(k int) (*Code, error) {
	if k <= 0 {
		return nil, fmt.Errorf("repetition: k must be positive, got %d", k)
	}
	src := make([]int, k)
	for i := range src {
		src[i] = i
	}
	l := core.Layout{K: k, N: k, Blocks: []core.Block{{Source: src}}}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	l.IndexBlocks()
	return &Code{layout: l}, nil
}

// Name implements core.Code.
func (c *Code) Name() string { return "no-fec" }

// Layout implements core.Code.
func (c *Code) Layout() core.Layout { return c.layout }

// BlockMDS implements core.BlockMDS: with no parity, the single block's
// threshold is all k distinct source packets — trivially MDS.
func (c *Code) BlockMDS() bool { return true }

// NewReceiver implements core.Code: the structural block decoder with no
// solver — one block whose threshold is every source packet.
func (c *Code) NewReceiver() core.Receiver { return core.NewBlockDecoder(c.layout, 0, nil) }

// EncodeInto implements core.Codec. A repetition "code" has no parity at
// all (n == k); redundancy comes from the scheduler sending packets
// several times. It still validates its input so the codec surface
// behaves uniformly across families.
func (c *Code) EncodeInto(src, parity [][]byte) error {
	if len(src) != c.layout.K {
		return fmt.Errorf("repetition: expected %d source payloads, got %d", c.layout.K, len(src))
	}
	if len(parity) != 0 {
		return fmt.Errorf("repetition: expected no parity buffers, got %d", len(parity))
	}
	symLen := len(src[0])
	for i, s := range src {
		if len(s) != symLen {
			return fmt.Errorf("repetition: payload %d has length %d, want %d", i, len(s), symLen)
		}
	}
	return nil
}

// Encode implements core.Codec; the result is always empty.
func (c *Code) Encode(src [][]byte) ([][]byte, error) { return core.EncodePooled(c, src) }

// NewDecoder implements core.Codec: done once every source packet has
// arrived at least once.
func (c *Code) NewDecoder(symLen int) (core.PayloadDecoder, error) {
	if symLen <= 0 {
		return nil, fmt.Errorf("repetition: symbol length must be positive, got %d", symLen)
	}
	return core.NewBlockDecoder(c.layout, symLen, nil), nil
}
