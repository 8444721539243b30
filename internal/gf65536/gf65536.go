// Package gf65536 implements arithmetic over GF(2^16).
//
// The paper (Section 2.2) notes that Reed-Solomon codecs prefer GF(2^8)
// over GF(2^16) "in spite of its limitations on the block size" because
// of the huge encoding/decoding time at large (k, n). This package exists
// to make that trade-off measurable: a GF(2^16) codec can treat a whole
// 20000-packet object as a single MDS block (no coupon-collector
// penalty), but no full multiplication table fits the 2^32 product
// space, so every slice multiplication (AddMul, MulSlice) goes through
// the log/exp tables and the per-byte cost stays above GF(2^8)'s.
//
// The field is generated by the primitive polynomial
// x^16 + x^12 + x^3 + x + 1 (0x1100B).
package gf65536

import "fmt"

// Poly is the generator polynomial including the x^16 term.
const Poly = 0x1100B

// Size is the number of field elements.
const Size = 1 << 16

var (
	expTable [2 * Size]uint16
	logTable [Size]int32
)

func init() {
	x := 1
	for i := 0; i < Size-1; i++ {
		expTable[i] = uint16(x)
		logTable[x] = int32(i)
		x <<= 1
		if x&0x10000 != 0 {
			x ^= Poly
		}
	}
	for i := Size - 1; i < 2*Size; i++ {
		expTable[i] = expTable[i-(Size-1)]
	}
}

// Add returns a+b (XOR).
func Add(a, b uint16) uint16 { return a ^ b }

// Mul returns a*b.
func Mul(a, b uint16) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[logTable[a]+logTable[b]]
}

// Inv returns a^-1; it panics on zero.
func Inv(a uint16) uint16 {
	if a == 0 {
		panic("gf65536: inverse of zero")
	}
	return expTable[Size-1-int(logTable[a])]
}

// Div returns a/b; it panics when b is zero.
func Div(a, b uint16) uint16 {
	if b == 0 {
		panic("gf65536: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])-int(logTable[b])+Size-1]
}

// Exp returns alpha^n.
func Exp(n int) uint16 {
	if n < 0 {
		panic(fmt.Sprintf("gf65536: negative exponent %d", n))
	}
	return expTable[n%(Size-1)]
}

// Pow returns a^n with the 0^0 = 1 convention.
func Pow(a uint16, n int) uint16 {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return expTable[(int(logTable[a])*n)%(Size-1)]
}

// AddMul sets dst[i] ^= c * src[i] over 16-bit symbols: one log and one
// exp lookup per non-zero element.
func AddMul(dst, src []uint16, c uint16) {
	if len(dst) != len(src) {
		panic("gf65536: AddMul length mismatch")
	}
	switch c {
	case 0:
		return
	case 1:
		Xor(dst, src)
	default:
		lc := logTable[c]
		for i, s := range src {
			if s != 0 {
				dst[i] ^= expTable[lc+logTable[s]]
			}
		}
	}
}

// MulSlice sets dst[i] = c * src[i].
func MulSlice(dst, src []uint16, c uint16) {
	if len(dst) != len(src) {
		panic("gf65536: MulSlice length mismatch")
	}
	switch c {
	case 0:
		clear(dst)
	case 1:
		copy(dst, src)
	default:
		lc := logTable[c]
		for i, s := range src {
			if s == 0 {
				dst[i] = 0
			} else {
				dst[i] = expTable[lc+logTable[s]]
			}
		}
	}
}

// Xor sets dst[i] ^= src[i] (field addition of two symbol slices). The
// slices must have equal length.
func Xor(dst, src []uint16) {
	if len(dst) != len(src) {
		panic("gf65536: Xor length mismatch")
	}
	for i, s := range src {
		dst[i] ^= s
	}
}
