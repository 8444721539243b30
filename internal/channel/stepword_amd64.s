//go:build amd64 && !purego

#include "textflag.h"

// func splitmixWord(s, pT, qT, rmin uint64, offs *[64]uint64) (enter, stay, redraw uint64)
//
// Lane j (0 ≤ j < 64) mixes the splitmix64 state s+offs[j] into
// y = mix(s+offs[j])>>1 and sets bit j of enter when y < pT, of stay
// when y ≥ qT and of redraw when y ≥ rmin. Each of the four passes runs
// two independent ZMMs of eight lanes (the two VPMULLQ chains overlap),
// joins their 8-bit compare masks into 16 bits with KUNPCKBW and
// shifts those into place in a GPR.
TEXT ·splitmixWord(SB), NOSPLIT, $0-64
	VPBROADCASTQ s+0(FP), Z0
	VPBROADCASTQ pT+8(FP), Z1
	VPBROADCASTQ qT+16(FP), Z2
	VPBROADCASTQ rmin+24(FP), Z3
	MOVQ offs+32(FP), SI
	MOVQ $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z4
	MOVQ $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z5
	XORQ R8, R8 // enter
	XORQ R9, R9 // stay
	XORQ R10, R10 // redraw
	XORQ CX, CX // bit offset of this pass's eight lanes

loop:
	VPADDQ  (SI), Z0, Z6
	VPADDQ  64(SI), Z0, Z8
	VPSRLQ  $30, Z6, Z7
	VPSRLQ  $30, Z8, Z9
	VPXORQ  Z7, Z6, Z6
	VPXORQ  Z9, Z8, Z8
	VPMULLQ Z4, Z6, Z6
	VPMULLQ Z4, Z8, Z8
	VPSRLQ  $27, Z6, Z7
	VPSRLQ  $27, Z8, Z9
	VPXORQ  Z7, Z6, Z6
	VPXORQ  Z9, Z8, Z8
	VPMULLQ Z5, Z6, Z6
	VPMULLQ Z5, Z8, Z8
	VPSRLQ  $31, Z6, Z7
	VPSRLQ  $31, Z8, Z9
	VPXORQ  Z7, Z6, Z6
	VPXORQ  Z9, Z8, Z8
	VPSRLQ  $1, Z6, Z6
	VPSRLQ  $1, Z8, Z8
	VPCMPUQ $1, Z1, Z6, K1 // lt
	VPCMPUQ $1, Z1, Z8, K4
	VPCMPUQ $5, Z2, Z6, K2 // nlt
	VPCMPUQ $5, Z2, Z8, K5
	VPCMPUQ $5, Z3, Z6, K3 // nlt
	VPCMPUQ $5, Z3, Z8, K6
	KUNPCKBW K1, K4, K1
	KUNPCKBW K2, K5, K2
	KUNPCKBW K3, K6, K3
	KMOVW   K1, AX
	KMOVW   K2, BX
	KMOVW   K3, DX
	SHLQ    CX, AX
	SHLQ    CX, BX
	SHLQ    CX, DX
	ORQ     AX, R8
	ORQ     BX, R9
	ORQ     DX, R10
	ADDQ    $128, SI
	ADDQ    $16, CX
	CMPQ    CX, $64
	JB      loop

	MOVQ R8, enter+40(FP)
	MOVQ R9, stay+48(FP)
	MOVQ R10, redraw+56(FP)
	VZEROUPPER
	RET
