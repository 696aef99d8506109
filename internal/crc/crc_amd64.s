//go:build amd64 && !purego

#include "textflag.h"

// func cpuHasCLMUL() bool
TEXT ·cpuHasCLMUL(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $1, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// Register use in foldCLMUL:
//   X0      the fold constants of the current distance D
//   X1-X4   the four lanes (X1 alone once they are folded together)
//   X5-X8   each lane's high-half product
//   X9-X12  the next 64 bytes of input
//   AX      k    SI  input cursor    CX  bytes left

// FOLD carries lane r forward D bits and adds d: r = r.lo·k.lo ⊕ r.hi·k.hi
// ⊕ d, with t as scratch. Bit-reflected, a lane's low quadword (its first
// 8 bytes) is the high-degree half, hence the larger power in k.lo.
#define FOLD(r, t, d) \
	MOVO r, t; \
	PCLMULQDQ $0x00, X0, r; \
	PCLMULQDQ $0x11, X0, t; \
	PXOR t, r; \
	PXOR d, r

// func foldCLMUL(k *[4]uint64, reg uint64, p []byte) (lo, hi uint64)
TEXT ·foldCLMUL(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), AX
	MOVQ reg+8(FP), X0
	MOVQ p_base+16(FP), SI
	MOVQ p_len+24(FP), CX
	MOVOU (SI), X1
	MOVOU 16(SI), X2
	MOVOU 32(SI), X3
	MOVOU 48(SI), X4
	PXOR X0, X1              // the register into the first 8 bytes
	ADDQ $64, SI
	SUBQ $64, CX
	MOVOU (AX), X0           // D = 512
	CMPQ CX, $64
	JB fold4

loop64:
	MOVOU (SI), X9
	MOVOU 16(SI), X10
	MOVOU 32(SI), X11
	MOVOU 48(SI), X12
	FOLD(X1, X5, X9)
	FOLD(X2, X6, X10)
	FOLD(X3, X7, X11)
	FOLD(X4, X8, X12)
	ADDQ $64, SI
	SUBQ $64, CX
	CMPQ CX, $64
	JAE loop64

fold4:
	MOVOU 16(AX), X0         // D = 128
	FOLD(X1, X5, X2)
	FOLD(X1, X5, X3)
	FOLD(X1, X5, X4)
	CMPQ CX, $16
	JB done

loop16:
	MOVOU (SI), X9
	FOLD(X1, X5, X9)
	ADDQ $16, SI
	SUBQ $16, CX
	CMPQ CX, $16
	JAE loop16

done:
	MOVQ X1, lo+40(FP)
	PSRLO $8, X1
	MOVQ X1, hi+48(FP)
	RET
