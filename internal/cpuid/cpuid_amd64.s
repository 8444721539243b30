//go:build amd64 && !purego

#include "textflag.h"

// func probe() (avx2, gfni, avx512dq bool)
TEXT ·probe(SB), NOSPLIT, $0-3
	MOVB $0, avx2+0(FP)
	MOVB $0, gfni+1(FP)
	MOVB $0, avx512dq+2(FP)
	// CPUID.1: ECX bit 27 = OSXSAVE, bit 28 = AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, BX
	ANDL $(1<<27 | 1<<28), BX
	CMPL BX, $(1<<27 | 1<<28)
	JNE  done
	// XCR0 bits 1,2: OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	MOVL AX, R8
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	// CPUID.7.0: EBX bit 5 = AVX2, bit 16 = AVX512F, bit 17 = AVX512DQ;
	// ECX bit 8 = GFNI.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, AX
	SHRL $5, AX
	ANDL $1, AX
	MOVB AX, avx2+0(FP)
	// The EVEX-encoded ZMM tiers also need XCR0 bits 5-7 (OS saves
	// opmask and ZMM state).
	ANDL $0xe0, R8
	CMPL R8, $0xe0
	JNE  done
	SHRL $16, BX // bit 0 = AVX512F, bit 1 = AVX512DQ
	MOVL BX, DX
	SHRL $1, DX
	ANDL BX, DX
	ANDL $1, DX
	MOVB DX, avx512dq+2(FP)
	// GFNI kernels run beside the AVX2 ones: GFNI, AVX512F and AVX2.
	SHRL $8, CX
	ANDL BX, CX
	ANDL AX, CX
	MOVB CX, gfni+1(FP)
done:
	RET
