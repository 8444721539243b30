package wire

import (
	"encoding/binary"
	"hash/crc32"
)

// checksum computes the header CRC over bytes 0..35. PutHeader and
// DecodeTo compute it; tests call it to forge corrupted-but-consistent
// headers.
func checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// idCRC[i][b] is what byte b at header offset 12+i, the packet ID's
// big-endian byte i, adds to the header checksum. CRC-32 is affine in
// its input: two 36-byte headers that differ only in the packet ID have
// checksums that differ by the XOR of these four entries, taken at the
// XOR of the two IDs. Each table is linear in b, so eight CRCs per byte
// position build it.
var idCRC [4][256]uint32

func init() {
	var h [36]byte
	zero := checksum(h[:])
	for i := range idCRC {
		for bit := 0; bit < 8; bit++ {
			h[12+i] = 1 << bit
			t := checksum(h[:]) ^ zero
			h[12+i] = 0
			lo := 1 << bit
			for b := 0; b < lo; b++ {
				idCRC[i][lo+b] = idCRC[i][b] ^ t
			}
		}
	}
}

// SetPacketID rewrites the packet ID of the header in h[:HeaderLen],
// which must carry a correct checksum (PutHeader wrote it), and updates
// the checksum to match with four table lookups instead of a CRC over 36
// bytes. A sender stamps an object's frames from one validated header:
// PutHeader once with packet ID 0, then a copy and SetPacketID per frame.
// It does not check id against n.
func SetPacketID(h []byte, id uint32) {
	h = h[:HeaderLen]
	d := binary.BigEndian.Uint32(h[12:]) ^ id
	binary.BigEndian.PutUint32(h[12:], id)
	sum := binary.BigEndian.Uint32(h[36:]) ^
		idCRC[0][d>>24] ^ idCRC[1][byte(d>>16)] ^ idCRC[2][byte(d>>8)] ^ idCRC[3][byte(d)]
	binary.BigEndian.PutUint32(h[36:], sum)
}
