//go:build !amd64 || purego

package gf256

// No fused AddMulRows or elimination kernel: on arm64 the ladder over
// addMul4NEON runs, elsewhere the pure-Go one. gfniEnabled is a constant
// false so the compiler removes the dispatch branches and these stubs.
const gfniEnabled = false

func addMulRowsFused(dst [][]byte, coef []byte, src [][]byte, n int) {
	panic("gf256: GFNI kernel called in a build without one")
}

func eliminateFused(ws []byte, stride, col int) {
	panic("gf256: GFNI kernel called in a build without one")
}
