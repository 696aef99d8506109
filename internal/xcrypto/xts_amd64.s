//go:build amd64 && !purego

#include "textflag.h"

// The GF(2^128) doubling mask: 0x87 folds the bit shifted out of the tweak
// back into byte 0, the 1 carries bit 63 into bit 64.
DATA xtsMask<>+0(SB)/8, $0x87
DATA xtsMask<>+8(SB)/8, $0x01
GLOBL xtsMask<>(SB), RODATA|NOPTR, $16

// func cpuHasAES() bool
TEXT ·cpuHasAES(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// func xtsInvKeys(dec, enc *[240]byte, rounds int)
TEXT ·xtsInvKeys(SB), NOSPLIT, $0-24
	MOVQ dec+0(FP), DI
	MOVQ enc+8(FP), SI
	MOVQ rounds+16(FP), CX
	SHLQ $4, CX
	ADDQ CX, SI              // SI walks enc from the last round key down
	MOVOU (SI), X0
	MOVOU X0, (DI)
	SUBQ $16, CX

invloop:
	SUBQ $16, SI
	ADDQ $16, DI
	MOVOU (SI), X0
	AESIMC X0, X0
	MOVOU X0, (DI)
	SUBQ $16, CX
	JNZ invloop
	MOVOU -16(SI), X0
	MOVOU X0, 16(DI)
	RET

// Register use in the two kernels:
//   X0-X7  the eight blocks in flight
//   X8     the running tweak
//   X9     the round key (loaded once per round for all eight), scratch
//   X10    xtsMask
//   AX     round-key cursor    BX  round counter
//   SI/DI  src/dst cursors     CX  groups left
//   DX     round keys          R8  rounds
//   0(SP)..127(SP)             the eight tweaks of this group

// DOUBLE multiplies the tweak in X8 by alpha (IEEE 1619 5.2): shift both
// halves left by one, then patch in the two bits the shift dropped. PSHUFD
// puts the tweak's top dword in lane 0 and its dword 1 in lane 2, PSRAD
// smears their sign bits, PAND keeps 0x87 / 1 where a bit fell out.
#define DOUBLE \
	PSHUFL $0x13, X8, X9; \
	PADDQ X8, X8; \
	PSRAL $31, X9; \
	PAND X10, X9; \
	PXOR X9, X8

// WHITEN_IN(off, X) files the current tweak for block off/16, loads the
// block, XORs the tweak in and steps the tweak.
#define WHITEN_IN(off, X) \
	MOVOU X8, off(SP); \
	MOVOU off(SI), X; \
	PXOR X8, X; \
	DOUBLE

// WHITEN_OUT(off, X) XORs the filed tweak back in and stores the block.
#define WHITEN_OUT(off, X) \
	MOVOU off(SP), X9; \
	PXOR X9, X; \
	MOVOU X, off(DI)

// ALL8(OP) applies OP X9, Xi to the eight blocks.
#define ALL8(OP) \
	OP X9, X0; \
	OP X9, X1; \
	OP X9, X2; \
	OP X9, X3; \
	OP X9, X4; \
	OP X9, X5; \
	OP X9, X6; \
	OP X9, X7

// XTS8(ROUND, LAST) is the body both directions share: per group of eight
// blocks pre-whiten, AddRoundKey, rounds-1 × ROUND, LAST, post-whiten. The
// loads all precede the stores, so dst may equal src.
#define XTS8(ROUND, LAST) \
	MOVOU (R9), X8; \
	MOVOU xtsMask<>(SB), X10; \
	DECQ R8; \
group: \
	WHITEN_IN(0, X0); \
	WHITEN_IN(16, X1); \
	WHITEN_IN(32, X2); \
	WHITEN_IN(48, X3); \
	WHITEN_IN(64, X4); \
	WHITEN_IN(80, X5); \
	WHITEN_IN(96, X6); \
	WHITEN_IN(112, X7); \
	MOVQ DX, AX; \
	MOVQ R8, BX; \
	MOVOU (AX), X9; \
	ALL8(PXOR); \
round: \
	ADDQ $16, AX; \
	MOVOU (AX), X9; \
	ALL8(ROUND); \
	DECQ BX; \
	JNZ round; \
	MOVOU 16(AX), X9; \
	ALL8(LAST); \
	WHITEN_OUT(0, X0); \
	WHITEN_OUT(16, X1); \
	WHITEN_OUT(32, X2); \
	WHITEN_OUT(48, X3); \
	WHITEN_OUT(64, X4); \
	WHITEN_OUT(80, X5); \
	WHITEN_OUT(96, X6); \
	WHITEN_OUT(112, X7); \
	ADDQ $128, SI; \
	ADDQ $128, DI; \
	DECQ CX; \
	JNZ group; \
	MOVOU X8, (R9); \
	RET

// func xtsEnc8(rk *[240]byte, rounds int, tweak *[16]byte, dst, src *byte, groups int)
TEXT ·xtsEnc8(SB), NOSPLIT, $128-48
	MOVQ rk+0(FP), DX
	MOVQ rounds+8(FP), R8
	MOVQ tweak+16(FP), R9
	MOVQ dst+24(FP), DI
	MOVQ src+32(FP), SI
	MOVQ groups+40(FP), CX
	XTS8(AESENC, AESENCLAST)

// func xtsDec8(rk *[240]byte, rounds int, tweak *[16]byte, dst, src *byte, groups int)
TEXT ·xtsDec8(SB), NOSPLIT, $128-48
	MOVQ rk+0(FP), DX
	MOVQ rounds+8(FP), R8
	MOVQ tweak+16(FP), R9
	MOVQ dst+24(FP), DI
	MOVQ src+32(FP), SI
	MOVQ groups+40(FP), CX
	XTS8(AESDEC, AESDECLAST)
