// Package wire defines the on-the-wire packet format of the minimal
// FLUTE/ALC-like delivery session used by the examples and the session
// package. The paper's systems (FLUTE over ALC) carry, with every packet,
// enough FEC Object Transmission Information (OTI) for a receiver that
// joins mid-session to start decoding immediately — this header does the
// same for our codes.
//
// Layout (big endian, 40 bytes fixed header + payload):
//
//	offset  size  field
//	0       4     magic "FECP"
//	4       1     version (1)
//	5       1     code family (CodeRSE / CodeLDGMStaircase / ...)
//	6       2     reserved (zero)
//	8       4     object ID
//	12      4     packet ID (0..n-1; IDs < k are source symbols)
//	16      4     k  (source packets in the object)
//	20      4     n  (total packets)
//	24      8     code construction seed (LDGM) or zero
//	32      4     payload length in bytes
//	36      4     header checksum (IEEE CRC-32 of bytes 0..35) — detects
//	              corrupted/foreign datagrams; SetPacketID updates it
//	              from four table lookups when only the packet ID changes
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic identifies fecperf datagrams.
var Magic = [4]byte{'F', 'E', 'C', 'P'}

// Version is the current header version.
const Version = 1

// HeaderLen is the fixed header size in bytes.
const HeaderLen = 40

// CodeFamily enumerates the FEC codes a packet may belong to.
type CodeFamily uint8

// Code family values carried on the wire.
const (
	CodeInvalid CodeFamily = iota
	CodeRSE
	CodeLDGM
	CodeLDGMStaircase
	CodeLDGMTriangle
	CodeRSE16
	CodeNoFEC
)

// String returns the canonical code name.
func (c CodeFamily) String() string {
	switch c {
	case CodeRSE:
		return "rse"
	case CodeLDGM:
		return "ldgm"
	case CodeLDGMStaircase:
		return "ldgm-staircase"
	case CodeLDGMTriangle:
		return "ldgm-triangle"
	case CodeRSE16:
		return "rse16"
	case CodeNoFEC:
		return "no-fec"
	default:
		return fmt.Sprintf("CodeFamily(%d)", uint8(c))
	}
}

// FamilyByName is the inverse of String for the valid families.
func FamilyByName(name string) (CodeFamily, error) {
	switch name {
	case "rse":
		return CodeRSE, nil
	case "ldgm":
		return CodeLDGM, nil
	case "ldgm-staircase":
		return CodeLDGMStaircase, nil
	case "ldgm-triangle":
		return CodeLDGMTriangle, nil
	case "rse16":
		return CodeRSE16, nil
	case "no-fec":
		return CodeNoFEC, nil
	default:
		return CodeInvalid, fmt.Errorf("wire: unknown code family %q", name)
	}
}

// Packet is one datagram: OTI + symbol payload.
type Packet struct {
	Family   CodeFamily
	ObjectID uint32
	PacketID uint32
	K, N     uint32
	Seed     int64
	Payload  []byte
}

// Clone returns a deep copy of the packet. Decode returns packets whose
// Payload aliases the input buffer; any consumer that stashes the packet
// beyond the buffer's reuse must Clone it first. (The session receiver
// does not need this: its payload decoders copy each payload once, to
// its final slot in the object's slab.)
func (p *Packet) Clone() *Packet {
	if p == nil {
		return nil
	}
	q := *p
	if p.Payload != nil {
		q.Payload = append(make([]byte, 0, len(p.Payload)), p.Payload...)
	}
	return &q
}

// Errors returned by Decode.
var (
	ErrTooShort    = errors.New("wire: datagram shorter than header")
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrBadChecksum = errors.New("wire: header checksum mismatch")
	ErrTruncated   = errors.New("wire: payload truncated")
)

// Validate checks the semantic invariants of the packet fields.
func (p *Packet) Validate() error {
	switch p.Family {
	case CodeRSE, CodeLDGM, CodeLDGMStaircase, CodeLDGMTriangle, CodeRSE16, CodeNoFEC:
	default:
		return fmt.Errorf("wire: invalid code family %d", p.Family)
	}
	if p.K == 0 || p.N < p.K {
		return fmt.Errorf("wire: invalid geometry k=%d n=%d", p.K, p.N)
	}
	if p.PacketID >= p.N {
		return fmt.Errorf("wire: packet id %d outside [0,%d)", p.PacketID, p.N)
	}
	return nil
}

// IsSource reports whether the packet carries a source symbol.
func (p *Packet) IsSource() bool { return p.PacketID < p.K }

// PutHeader validates the packet and writes its HeaderLen-byte header,
// checksum included, into h[:HeaderLen]; the length field is
// len(p.Payload). A sender that keeps datagrams resident lays each frame
// out as header ++ payload and stamps the header once: here, or for the
// frames of one object from a copy of one header with SetPacketID.
func (p *Packet) PutHeader(h []byte) error {
	if err := p.Validate(); err != nil {
		return err
	}
	h = h[:HeaderLen]
	copy(h[0:4], Magic[:])
	h[4] = Version
	h[5] = byte(p.Family)
	h[6], h[7] = 0, 0
	binary.BigEndian.PutUint32(h[8:], p.ObjectID)
	binary.BigEndian.PutUint32(h[12:], p.PacketID)
	binary.BigEndian.PutUint32(h[16:], p.K)
	binary.BigEndian.PutUint32(h[20:], p.N)
	binary.BigEndian.PutUint64(h[24:], uint64(p.Seed))
	binary.BigEndian.PutUint32(h[32:], uint32(len(p.Payload)))
	binary.BigEndian.PutUint32(h[36:], checksum(h[:36]))
	return nil
}

// AppendEncode appends the encoded datagram to dst and returns it.
func (p *Packet) AppendEncode(dst []byte) ([]byte, error) {
	var h [HeaderLen]byte
	if err := p.PutHeader(h[:]); err != nil {
		return nil, err
	}
	return append(append(dst, h[:]...), p.Payload...), nil
}

// Encode serialises the packet into a fresh buffer.
func (p *Packet) Encode() ([]byte, error) { return p.AppendEncode(nil) }

// Decode parses a datagram. The returned packet's Payload aliases data;
// copy it if the buffer is reused.
func Decode(data []byte) (*Packet, error) {
	p := new(Packet)
	if err := DecodeTo(p, data); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeTo parses a datagram into p, the allocation-free variant of
// Decode for receive loops that reuse one scratch Packet per read
// buffer. Every field of p is overwritten; p.Payload aliases data, so p
// is only valid until the buffer is reused. On error p is left in an
// unspecified state.
func DecodeTo(p *Packet, data []byte) error {
	if len(data) < HeaderLen {
		return ErrTooShort
	}
	h := data[:HeaderLen]
	if h[0] != Magic[0] || h[1] != Magic[1] || h[2] != Magic[2] || h[3] != Magic[3] {
		return ErrBadMagic
	}
	if h[4] != Version {
		return ErrBadVersion
	}
	if binary.BigEndian.Uint32(h[36:]) != checksum(h[:36]) {
		return ErrBadChecksum
	}
	*p = Packet{
		Family:   CodeFamily(h[5]),
		ObjectID: binary.BigEndian.Uint32(h[8:]),
		PacketID: binary.BigEndian.Uint32(h[12:]),
		K:        binary.BigEndian.Uint32(h[16:]),
		N:        binary.BigEndian.Uint32(h[20:]),
		Seed:     int64(binary.BigEndian.Uint64(h[24:])),
	}
	payLen := int(binary.BigEndian.Uint32(h[32:]))
	if len(data) < HeaderLen+payLen {
		return ErrTruncated
	}
	p.Payload = data[HeaderLen : HeaderLen+payLen]
	return p.Validate()
}
