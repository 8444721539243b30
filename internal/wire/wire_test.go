package wire

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func sample() *Packet {
	return &Packet{
		Family:   CodeLDGMStaircase,
		ObjectID: 7,
		PacketID: 1234,
		K:        2000,
		N:        5000,
		Seed:     -42,
		Payload:  []byte{1, 2, 3, 4, 5},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := sample()
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != HeaderLen+5 {
		t.Fatalf("encoded length %d, want %d", len(data), HeaderLen+5)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Family != p.Family || got.ObjectID != p.ObjectID || got.PacketID != p.PacketID ||
		got.K != p.K || got.N != p.N || got.Seed != p.Seed {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, p)
	}
	for i := range p.Payload {
		if got.Payload[i] != p.Payload[i] {
			t.Fatal("payload mismatch")
		}
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	bad := []*Packet{
		{Family: CodeInvalid, K: 1, N: 2},
		{Family: CodeRSE, K: 0, N: 2},
		{Family: CodeRSE, K: 5, N: 2},
		{Family: CodeRSE, K: 2, N: 4, PacketID: 4},
	}
	for i, p := range bad {
		if _, err := p.Encode(); err == nil {
			t.Errorf("bad packet %d encoded", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	p := sample()
	data, _ := p.Encode()

	if _, err := Decode(data[:10]); err != ErrTooShort {
		t.Errorf("short datagram: %v", err)
	}

	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := Decode(bad); err != ErrBadMagic {
		t.Errorf("bad magic: %v", err)
	}

	bad = append([]byte(nil), data...)
	bad[4] = 99
	if _, err := Decode(bad); err != ErrBadVersion {
		t.Errorf("bad version: %v", err)
	}

	// Flip a header byte: checksum must catch it.
	bad = append([]byte(nil), data...)
	bad[13] ^= 0xff
	if _, err := Decode(bad); err != ErrBadChecksum {
		t.Errorf("corrupted header: %v", err)
	}

	// Truncated payload (header says 5 bytes, only 2 present).
	if _, err := Decode(data[:HeaderLen+2]); err != ErrTruncated {
		t.Errorf("truncated payload: %v", err)
	}

	// Semantically invalid but checksum-correct header.
	evil := sample()
	evil.PacketID = 10_000 // >= n
	raw := make([]byte, HeaderLen)
	d, _ := sample().Encode()
	copy(raw, d)
	binary.BigEndian.PutUint32(raw[12:], evil.PacketID)
	// recompute checksum the way AppendEncode does
	binary.BigEndian.PutUint32(raw[36:], crcOf(raw[:36]))
	if _, err := Decode(raw); err == nil {
		t.Error("semantically invalid packet decoded")
	}
}

func crcOf(b []byte) uint32 {
	// small indirection to avoid importing hash/crc32 twice in tests
	return checksum(b)
}

func TestFamilyNames(t *testing.T) {
	for _, f := range []CodeFamily{CodeRSE, CodeLDGM, CodeLDGMStaircase, CodeLDGMTriangle, CodeRSE16, CodeNoFEC} {
		back, err := FamilyByName(f.String())
		if err != nil || back != f {
			t.Errorf("family %v round trip failed: %v", f, err)
		}
	}
	if _, err := FamilyByName("nope"); err == nil {
		t.Error("FamilyByName accepted junk")
	}
	if CodeFamily(200).String() == "" {
		t.Error("unknown family should stringify")
	}
}

func TestIsSource(t *testing.T) {
	p := sample()
	p.PacketID = p.K - 1
	if !p.IsSource() {
		t.Error("last source symbol misclassified")
	}
	p.PacketID = p.K
	if p.IsSource() {
		t.Error("first parity symbol misclassified")
	}
}

func TestAppendEncodeAppends(t *testing.T) {
	prefix := []byte{9, 9, 9}
	out, err := sample().AppendEncode(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 9 || out[1] != 9 || out[2] != 9 {
		t.Fatal("AppendEncode clobbered prefix")
	}
	if _, err := Decode(out[3:]); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(obj, pid, k uint16, seed int64, payload []byte) bool {
		if k == 0 {
			k = 1
		}
		n := uint32(k) * 2
		p := &Packet{
			Family:   CodeLDGMTriangle,
			ObjectID: uint32(obj),
			PacketID: uint32(pid) % n,
			K:        uint32(k),
			N:        n,
			Seed:     seed,
			Payload:  payload,
		}
		data, err := p.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		if got.ObjectID != p.ObjectID || got.PacketID != p.PacketID || got.Seed != p.Seed ||
			len(got.Payload) != len(p.Payload) {
			return false
		}
		for i := range payload {
			if got.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	buf, err := (&Packet{
		Family:   CodeLDGMStaircase,
		ObjectID: 3,
		PacketID: 1,
		K:        2,
		N:        4,
		Seed:     99,
		Payload:  []byte{1, 2, 3, 4},
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	if c == p || &c.Payload[0] == &p.Payload[0] {
		t.Fatal("Clone did not deep-copy")
	}
	// Overwriting the original buffer (socket-buffer reuse) must leave
	// the clone intact.
	for i := range buf {
		buf[i] = 0xFF
	}
	if string(c.Payload) != string([]byte{1, 2, 3, 4}) {
		t.Fatalf("clone payload corrupted by buffer reuse: %v", c.Payload)
	}
	if c.ObjectID != 3 || c.PacketID != 1 || c.K != 2 || c.N != 4 || c.Seed != 99 {
		t.Fatalf("clone header fields wrong: %+v", c)
	}
	var nilPkt *Packet
	if nilPkt.Clone() != nil {
		t.Fatal("Clone of nil packet should be nil")
	}
	empty := &Packet{Family: CodeRSE, K: 1, N: 1}
	if cl := empty.Clone(); cl.Payload != nil {
		t.Fatal("Clone invented a payload")
	}
}

// TestSetPacketIDMatchesCRC checks the table update against a full
// crc32.ChecksumIEEE: from a stamped header with packet ID 0 to IDs
// across each byte boundary and both extremes, and from 10⁵ random
// 36-byte headers (any field values, the old ID included) to random IDs.
// A header it stamps must decode.
func TestSetPacketIDMatchesCRC(t *testing.T) {
	p := sample()
	p.PacketID, p.N = 0, 1<<32-1
	var base [HeaderLen]byte
	if err := p.PutHeader(base[:]); err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint32{0, 1, 255, 256, 65535, 65536, 1 << 24, 1<<32 - 1} {
		h := base
		SetPacketID(h[:], id)
		if got, want := binary.BigEndian.Uint32(h[36:]), crc32.ChecksumIEEE(h[:36]); got != want {
			t.Fatalf("id %#x: checksum %#08x, CRC says %#08x", id, got, want)
		}
		if binary.BigEndian.Uint32(h[12:]) != id {
			t.Fatalf("id %#x: header carries packet ID %#x", id, binary.BigEndian.Uint32(h[12:]))
		}
		if id < p.N {
			if q, err := Decode(append(h[:], p.Payload...)); err != nil || q.PacketID != id {
				t.Fatalf("id %#x: stamped header does not decode (%v)", id, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	var h [HeaderLen]byte
	for i := 0; i < 100_000; i++ {
		rng.Read(h[:36])
		binary.BigEndian.PutUint32(h[36:], crc32.ChecksumIEEE(h[:36]))
		id := rng.Uint32()
		SetPacketID(h[:], id)
		if got, want := binary.BigEndian.Uint32(h[36:]), crc32.ChecksumIEEE(h[:36]); got != want || binary.BigEndian.Uint32(h[12:]) != id {
			t.Fatalf("header %x, id %#x: checksum %#08x, CRC says %#08x", h[:36], id, got, want)
		}
	}
}
