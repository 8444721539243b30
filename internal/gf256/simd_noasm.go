//go:build (!amd64 && !arm64) || purego

package gf256

// No SIMD tier: other architectures, and `-tags purego` builds on any
// architecture (the build-tag-forcible fallback CI runs the codec suite
// under). simdEnabled is a constant false so the compiler removes the
// dispatch branches and these stubs entirely.

const (
	simdEnabled  = false
	simdTierName = ""
)

func addMulSIMD(dst, src []byte, c byte) {
	panic("gf256: SIMD kernel called in a build without one")
}

func addMul4SIMD(d0, d1, d2, d3, src []byte, c0, c1, c2, c3 byte) {
	panic("gf256: SIMD kernel called in a build without one")
}

func xorSIMD(dst, src []byte) {
	panic("gf256: SIMD kernel called in a build without one")
}

func xorSumSIMD(dst []byte, srcs [][]byte) {
	panic("gf256: SIMD kernel called in a build without one")
}
