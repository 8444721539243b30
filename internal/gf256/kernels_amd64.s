//go:build amd64 && !purego

// GF(2^8) slice kernels for amd64. The AVX2 routines use low/high nibble
// shuffle tables (Plank et al., FAST 2013) and require n to be a positive
// multiple of 32; the GFNI routine multiplies with VGF2P8AFFINEQB on ZMM
// registers and requires a positive multiple of 128. The Go wrappers split
// off the tail. Loads and stores are unaligned, so the wrappers never need
// to align pooled buffers.

#include "textflag.h"

// func addMulAVX2(dst, src *byte, n int, lo, hi *[16]byte)
// dst[i] ^= lo[src[i]&0x0f] ^ hi[src[i]>>4] for i in [0,n), n % 32 == 0.
TEXT ·addMulAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ lo+24(FP), AX
	MOVQ hi+32(FP), BX
	VBROADCASTI128 (AX), Y0 // low-nibble product table in both lanes
	VBROADCASTI128 (BX), Y1 // high-nibble product table
	MOVQ $15, AX
	VMOVQ AX, X2
	VPBROADCASTB X2, Y2     // 0x0f in every byte lane
	// 64-byte main loop: two independent shuffle chains per iteration.
	CMPQ CX, $64
	JB   tail32
loop64:
	VMOVDQU (SI), Y3
	VMOVDQU 32(SI), Y6
	VPSRLQ  $4, Y3, Y4
	VPSRLQ  $4, Y6, Y7
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y6, Y6
	VPAND   Y2, Y4, Y4
	VPAND   Y2, Y7, Y7
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y6, Y0, Y6
	VPSHUFB Y4, Y1, Y4
	VPSHUFB Y7, Y1, Y7
	VPXOR   Y3, Y4, Y3
	VPXOR   Y6, Y7, Y6
	VPXOR   (DI), Y3, Y3
	VPXOR   32(DI), Y6, Y6
	VMOVDQU Y3, (DI)
	VMOVDQU Y6, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     loop64
tail32:
	TESTQ CX, CX
	JZ    done
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
done:
	VZEROUPPER
	RET

// func addMul4AVX2(d0, d1, d2, d3, src *byte, n int, tab *[8][16]byte)
// Four multiply-accumulates per source load: tab holds lo/hi nibble
// tables for the four coefficients, back to back. n % 32 == 0, n > 0.
TEXT ·addMul4AVX2(SB), NOSPLIT, $0-56
	MOVQ d0+0(FP), DI
	MOVQ d1+8(FP), R8
	MOVQ d2+16(FP), R9
	MOVQ d3+24(FP), R10
	MOVQ src+32(FP), SI
	MOVQ n+40(FP), CX
	MOVQ tab+48(FP), AX
	VBROADCASTI128 (AX), Y0    // lo0
	VBROADCASTI128 16(AX), Y1  // hi0
	VBROADCASTI128 32(AX), Y2  // lo1
	VBROADCASTI128 48(AX), Y3  // hi1
	VBROADCASTI128 64(AX), Y4  // lo2
	VBROADCASTI128 80(AX), Y5  // hi2
	VBROADCASTI128 96(AX), Y6  // lo3
	VBROADCASTI128 112(AX), Y7 // hi3
	MOVQ $15, AX
	VMOVQ AX, X8
	VPBROADCASTB X8, Y8        // 0x0f mask
loop:
	VMOVDQU (SI), Y9
	VPSRLQ  $4, Y9, Y10
	VPAND   Y8, Y9, Y9         // low nibbles
	VPAND   Y8, Y10, Y10       // high nibbles
	VPSHUFB Y9, Y0, Y11
	VPSHUFB Y10, Y1, Y12
	VPXOR   Y11, Y12, Y11
	VPXOR   (DI), Y11, Y11
	VMOVDQU Y11, (DI)
	VPSHUFB Y9, Y2, Y13
	VPSHUFB Y10, Y3, Y14
	VPXOR   Y13, Y14, Y13
	VPXOR   (R8), Y13, Y13
	VMOVDQU Y13, (R8)
	VPSHUFB Y9, Y4, Y11
	VPSHUFB Y10, Y5, Y12
	VPXOR   Y11, Y12, Y11
	VPXOR   (R9), Y11, Y11
	VMOVDQU Y11, (R9)
	VPSHUFB Y9, Y6, Y13
	VPSHUFB Y10, Y7, Y14
	VPXOR   Y13, Y14, Y13
	VPXOR   (R10), Y13, Y13
	VMOVDQU Y13, (R10)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	SUBQ    $32, CX
	JNZ     loop
	VZEROUPPER
	RET

// func xorAVX2(dst, src *byte, n int)
// dst[i] ^= src[i] for i in [0,n), n % 32 == 0, n > 0.
TEXT ·xorAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	CMPQ CX, $128
	JB   tail32
loop128:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VPXOR   (DI), Y0, Y0
	VPXOR   32(DI), Y1, Y1
	VPXOR   64(DI), Y2, Y2
	VPXOR   96(DI), Y3, Y3
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $128, CX
	CMPQ    CX, $128
	JAE     loop128
tail32:
	TESTQ CX, CX
	JZ    done
tailloop:
	VMOVDQU (SI), Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     tailloop
done:
	VZEROUPPER
	RET

// func addMulRowsGFNI(dst *[4]*byte, rows int, src **byte, mats *[4]uint64, cols, n int)
// dst[r][i] ^= Σ_j mats[j][r]·src[j][i] for r in [0,rows), j in [0,cols),
// i in [0,n): rows in 1..4, cols > 0, n a positive multiple of 128. mats
// holds, per source, the four rows' 8×8 bit matrices (gfniMat). All four
// products are always computed; only the first `rows` are stored, so the
// spare rows' dst pointers are never touched and their matrices may hold
// anything. The walk is strip-major: the 128-byte strip of all four rows
// lives in Z0-Z7 across the whole source loop, so each destination byte is
// loaded and stored once per call instead of once per source. Sources go
// two per step: one three-way VPTERNLOGQ folds both products into an
// accumulator, 12 vector ALU ops per source where one at a time takes 16.
// An odd last source takes the one-source step.
TEXT ·addMulRowsGFNI(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), AX
	MOVQ (AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ rows+8(FP), R12
	MOVQ src+16(FP), SI
	MOVQ mats+24(FP), DI
	MOVQ cols+32(FP), CX
	MOVQ n+40(FP), DX
	XORQ BX, BX                    // strip offset
strip:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	XORQ AX, AX                    // source index
	MOVQ DI, R13                   // this source's four matrices
pair:
	LEAQ      1(AX), R14           // a pair needs sources AX and AX+1
	CMPQ      R14, CX
	JAE       single
	MOVQ      (SI)(AX*8), R14
	VMOVDQU64 (R14)(BX*1), Z8
	VMOVDQU64 64(R14)(BX*1), Z9
	MOVQ      8(SI)(AX*8), R14
	VMOVDQU64 (R14)(BX*1), Z16
	VMOVDQU64 64(R14)(BX*1), Z17
	VPBROADCASTQ   (R13), Z10
	VPBROADCASTQ   32(R13), Z18
	VGF2P8AFFINEQB $0, Z10, Z8, Z12
	VGF2P8AFFINEQB $0, Z10, Z9, Z13
	VGF2P8AFFINEQB $0, Z18, Z16, Z20
	VGF2P8AFFINEQB $0, Z18, Z17, Z21
	VPTERNLOGQ     $0x96, Z20, Z12, Z0
	VPTERNLOGQ     $0x96, Z21, Z13, Z1
	VPBROADCASTQ   8(R13), Z11
	VPBROADCASTQ   40(R13), Z19
	VGF2P8AFFINEQB $0, Z11, Z8, Z14
	VGF2P8AFFINEQB $0, Z11, Z9, Z15
	VGF2P8AFFINEQB $0, Z19, Z16, Z22
	VGF2P8AFFINEQB $0, Z19, Z17, Z23
	VPTERNLOGQ     $0x96, Z22, Z14, Z2
	VPTERNLOGQ     $0x96, Z23, Z15, Z3
	VPBROADCASTQ   16(R13), Z10
	VPBROADCASTQ   48(R13), Z18
	VGF2P8AFFINEQB $0, Z10, Z8, Z12
	VGF2P8AFFINEQB $0, Z10, Z9, Z13
	VGF2P8AFFINEQB $0, Z18, Z16, Z20
	VGF2P8AFFINEQB $0, Z18, Z17, Z21
	VPTERNLOGQ     $0x96, Z20, Z12, Z4
	VPTERNLOGQ     $0x96, Z21, Z13, Z5
	VPBROADCASTQ   24(R13), Z11
	VPBROADCASTQ   56(R13), Z19
	VGF2P8AFFINEQB $0, Z11, Z8, Z14
	VGF2P8AFFINEQB $0, Z11, Z9, Z15
	VGF2P8AFFINEQB $0, Z19, Z16, Z22
	VGF2P8AFFINEQB $0, Z19, Z17, Z23
	VPTERNLOGQ     $0x96, Z22, Z14, Z6
	VPTERNLOGQ     $0x96, Z23, Z15, Z7
	ADDQ      $64, R13
	ADDQ      $2, AX
	JMP       pair
single:
	CMPQ      AX, CX
	JAE       store
	MOVQ      (SI)(AX*8), R14
	VMOVDQU64 (R14)(BX*1), Z8
	VMOVDQU64 64(R14)(BX*1), Z9
	VPBROADCASTQ   (R13), Z10
	VPBROADCASTQ   8(R13), Z11
	VGF2P8AFFINEQB $0, Z10, Z8, Z12
	VGF2P8AFFINEQB $0, Z10, Z9, Z13
	VGF2P8AFFINEQB $0, Z11, Z8, Z14
	VGF2P8AFFINEQB $0, Z11, Z9, Z15
	VPXORQ    Z12, Z0, Z0
	VPXORQ    Z13, Z1, Z1
	VPXORQ    Z14, Z2, Z2
	VPXORQ    Z15, Z3, Z3
	VPBROADCASTQ   16(R13), Z10
	VPBROADCASTQ   24(R13), Z11
	VGF2P8AFFINEQB $0, Z10, Z8, Z12
	VGF2P8AFFINEQB $0, Z10, Z9, Z13
	VGF2P8AFFINEQB $0, Z11, Z8, Z14
	VGF2P8AFFINEQB $0, Z11, Z9, Z15
	VPXORQ    Z12, Z4, Z4
	VPXORQ    Z13, Z5, Z5
	VPXORQ    Z14, Z6, Z6
	VPXORQ    Z15, Z7, Z7
store:
	VPXORQ    (R8)(BX*1), Z0, Z0
	VPXORQ    64(R8)(BX*1), Z1, Z1
	VMOVDQU64 Z0, (R8)(BX*1)
	VMOVDQU64 Z1, 64(R8)(BX*1)
	CMPQ      R12, $2
	JB        next
	VPXORQ    (R9)(BX*1), Z2, Z2
	VPXORQ    64(R9)(BX*1), Z3, Z3
	VMOVDQU64 Z2, (R9)(BX*1)
	VMOVDQU64 Z3, 64(R9)(BX*1)
	CMPQ      R12, $3
	JB        next
	VPXORQ    (R10)(BX*1), Z4, Z4
	VPXORQ    64(R10)(BX*1), Z5, Z5
	VMOVDQU64 Z4, (R10)(BX*1)
	VMOVDQU64 Z5, 64(R10)(BX*1)
	CMPQ      R12, $4
	JB        next
	VPXORQ    (R11)(BX*1), Z6, Z6
	VPXORQ    64(R11)(BX*1), Z7, Z7
	VMOVDQU64 Z6, (R11)(BX*1)
	VMOVDQU64 Z7, 64(R11)(BX*1)
next:
	ADDQ $128, BX
	CMPQ BX, DX
	JB   strip
	VZEROUPPER
	RET

// func eliminateGFNI(ws *byte, stride, rows, col int, mats *[256]uint64)
// One Gauss-Jordan pivot step: for every row r in [0,rows) but col,
// row r ^= mats[row r's byte at col]·row col over all stride bytes, the
// rows laid stride bytes apart from ws; stride is a positive multiple of
// 128. Each row reads its pivot-column byte before any store, so that
// byte is read as it was. A zero byte leaves the row as it is and skips it.
TEXT ·eliminateGFNI(SB), NOSPLIT, $0-40
	MOVQ ws+0(FP), SI
	MOVQ stride+8(FP), DX
	MOVQ rows+16(FP), CX
	MOVQ col+24(FP), BX
	MOVQ mats+32(FP), R8
	MOVQ BX, AX
	IMULQ DX, AX
	LEAQ (SI)(AX*1), DI            // pivot row
	XORQ R9, R9                    // row index
row:
	CMPQ    R9, BX
	JEQ     next
	MOVBQZX (SI)(BX*1), AX         // the row's entry in the pivot column
	TESTQ   AX, AX
	JZ      next
	VPBROADCASTQ (R8)(AX*8), Z0
	XORQ    R10, R10               // byte offset
strip:
	VMOVDQU64 (DI)(R10*1), Z1
	VMOVDQU64 64(DI)(R10*1), Z2
	VGF2P8AFFINEQB $0, Z0, Z1, Z1
	VGF2P8AFFINEQB $0, Z0, Z2, Z2
	VPXORQ    (SI)(R10*1), Z1, Z1
	VPXORQ    64(SI)(R10*1), Z2, Z2
	VMOVDQU64 Z1, (SI)(R10*1)
	VMOVDQU64 Z2, 64(SI)(R10*1)
	ADDQ      $128, R10
	CMPQ      R10, DX
	JB        strip
next:
	ADDQ DX, SI
	INCQ R9
	CMPQ R9, CX
	JB   row
	VZEROUPPER
	RET
