package wire

import (
	"encoding/binary"
	"fmt"
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

// decodeLikeAgrees reports whether DecodeLike(data, tmpl) returns what
// DecodeTo(data) does: the same error and, on success, every field
// equal, the payload viewing the same bytes.
func decodeLikeAgrees(data, tmpl []byte) (agree, accepted bool) {
	var got, want Packet
	errGot, errWant := DecodeLike(&got, data, tmpl), DecodeTo(&want, data)
	if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
		return false, false
	}
	if errWant != nil {
		return true, false
	}
	return got.Family == want.Family && got.ObjectID == want.ObjectID && got.PacketID == want.PacketID &&
		got.K == want.K && got.N == want.N && got.Seed == want.Seed &&
		len(got.Payload) == len(want.Payload) && (len(got.Payload) == 0 || &got.Payload[0] == &want.Payload[0]), true
}

// TestDecodeLikeMatchesDecodeTo checks DecodeLike against DecodeTo over
// 10⁶ datagrams, each against the header of a random valid object:
// random headers, random valid headers of other objects, the template
// restamped with another packet ID (with and without the checksum
// update), each of those with one bit flipped at every offset 0–39, a
// mismatch in each field (with and without a recomputed checksum), and
// short and truncated datagrams.
func TestDecodeLikeMatchesDecodeTo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	families := []CodeFamily{CodeRSE, CodeLDGM, CodeLDGMStaircase, CodeLDGMTriangle, CodeRSE16, CodeNoFEC}
	randomPacket := func() *Packet {
		k := 1 + rng.Uint32()%5000
		n := k + rng.Uint32()%5000
		if rng.Intn(8) == 0 {
			n = 1<<32 - 1
		}
		return &Packet{
			Family:   families[rng.Intn(len(families))],
			ObjectID: rng.Uint32(),
			PacketID: rng.Uint32() % n,
			K:        k,
			N:        n,
			Seed:     rng.Int63() - rng.Int63(),
			Payload:  make([]byte, rng.Intn(48)),
		}
	}
	encode := func(p *Packet) []byte {
		d, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	resum := func(d []byte) []byte {
		binary.BigEndian.PutUint32(d[36:], checksum(d[:36]))
		return d
	}
	var checked, accepted int
	check := func(what string, data, tmpl []byte) {
		t.Helper()
		agree, ok := decodeLikeAgrees(data, tmpl)
		if !agree {
			t.Fatalf("%s: DecodeLike disagrees with DecodeTo on %x (template %x)", what, data, tmpl[:HeaderLen])
		}
		checked++
		if ok {
			accepted++
		}
	}
	for checked < 1_000_000 {
		tp := randomPacket()
		tmpl := encode(tp)
		// Another packet of the same object, restamped by SetPacketID.
		like := append([]byte(nil), tmpl...)
		SetPacketID(like, rng.Uint32()%tp.N)
		check("restamped", like, tmpl)
		stale := append([]byte(nil), tmpl...)
		binary.BigEndian.PutUint32(stale[12:], rng.Uint32()%tp.N)
		check("new ID, old checksum", stale, tmpl)
		outside := append([]byte(nil), tmpl...)
		SetPacketID(outside, tp.N+rng.Uint32()%(1<<32-1-tp.N+1))
		check("ID past n", outside, tmpl)
		for off := 0; off < HeaderLen; off++ {
			flip := append([]byte(nil), like...)
			flip[off] ^= 1 << rng.Intn(8)
			check(fmt.Sprintf("bit flip at %d", off), flip, tmpl)
		}
		// A mismatch in each field, the checksum recomputed and not.
		for _, f := range []struct {
			off, len int
		}{{0, 4}, {4, 1}, {5, 1}, {6, 2}, {8, 4}, {16, 4}, {20, 4}, {24, 8}, {32, 4}} {
			mis := append([]byte(nil), like...)
			for i := f.off; i < f.off+f.len; i++ {
				mis[i] = byte(rng.Intn(256))
			}
			check(fmt.Sprintf("field at %d, old checksum", f.off), mis, tmpl)
			check(fmt.Sprintf("field at %d, recomputed checksum", f.off), resum(mis), tmpl)
		}
		other := encode(randomPacket())
		check("another object", other, tmpl)
		junk := make([]byte, HeaderLen+rng.Intn(16))
		rng.Read(junk)
		check("random bytes", junk, tmpl)
		check("short", like[:rng.Intn(HeaderLen)], tmpl)
		if len(tp.Payload) > 0 {
			check("truncated", like[:HeaderLen+rng.Intn(len(tp.Payload))], tmpl)
		}
		check("longer than announced", append(append([]byte(nil), like...), 0xAA), tmpl)
	}
	if accepted == 0 || accepted == checked {
		t.Fatalf("%d of %d accepted: the cases missed a branch", accepted, checked)
	}
	t.Logf("%d datagrams, %d accepted", checked, accepted)
}
