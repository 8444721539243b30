//go:build amd64 && !purego

package gf256

import (
	"math/bits"
	"testing"
)

// TestGFNIMatricesMatchMulTable checks all 256×256 products of the bit
// matrices against mulTable: by VGF2P8AFFINEQB's definition in software
// on every host, and through the kernel itself where the CPU has GFNI.
func TestGFNIMatricesMatchMulTable(t *testing.T) {
	var all [Size]byte
	for x := range all {
		all[x] = byte(x)
	}
	if !gfniEnabled {
		t.Log("no GFNI on this CPU: checking gfniMat in software only")
	}
	for c := 0; c < Size; c++ {
		for x := 0; x < Size; x++ {
			var y byte
			for i := 0; i < 8; i++ {
				y |= byte(bits.OnesCount8(byte(gfniMat[c]>>(8*(7-i)))&byte(x))&1) << i
			}
			if y != mulTable[c][x] {
				t.Fatalf("gfniMat[%#x] applied to %#x = %#x, mulTable says %#x", c, x, y, mulTable[c][x])
			}
		}
		if gfniEnabled {
			var got [Size]byte
			addMulRowsFused([][]byte{got[:]}, []byte{byte(c)}, [][]byte{all[:]}, Size)
			if got != mulTable[c] {
				t.Fatalf("addMulRowsGFNI by %#x diverges from mulTable", c)
			}
		}
	}
}
