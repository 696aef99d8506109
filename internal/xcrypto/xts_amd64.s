//go:build amd64 && !purego

#include "textflag.h"

// The GF(2^128) doubling mask: 0x87 folds the bit shifted out of the tweak
// back into byte 0, the 1 carries bit 63 into bit 64.
DATA xtsMask<>+0(SB)/8, $0x87
DATA xtsMask<>+8(SB)/8, $0x01
GLOBL xtsMask<>(SB), RODATA|NOPTR, $16

// xtsPoly is the reduction constant of the 16-block kernels' tweak step,
// one 128-bit lane of it: 0x87 in the low quadword.
DATA xtsPoly<>+0(SB)/8, $0x87
DATA xtsPoly<>+8(SB)/8, $0
GLOBL xtsPoly<>(SB), RODATA|NOPTR, $16

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func aesEncBlock(rk *[240]byte, rounds int, b *[16]byte)
TEXT ·aesEncBlock(SB), NOSPLIT, $0-24
	MOVQ rk+0(FP), AX
	MOVQ rounds+8(FP), CX
	MOVQ b+16(FP), DX
	MOVOU (DX), X0
	MOVOU (AX), X1
	PXOR X1, X0
	DECQ CX

encloop:
	ADDQ $16, AX
	MOVOU (AX), X1
	AESENC X1, X0
	DECQ CX
	JNZ encloop
	MOVOU 16(AX), X1
	AESENCLAST X1, X0
	MOVOU X0, (DX)
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

// Register use in the two 16-block kernels (AVX-512 + VAES + VPCLMULQDQ):
//   Z0-Z3    the sixteen blocks in flight, four 128-bit lanes each
//   Z4-Z7    their tweaks, lane for lane
//   Z8       xtsPoly in every lane
//   Z9       the round key in every lane
//   Z10-Z13  scratch
//   AX       round-key cursor    BX  round counter
//   SI/DI    src/dst cursors     CX  groups left
//   DX       round keys          R8  rounds
//   R9       the eight starting tweaks in, the next unused tweak out

// MULX8(S, D, T) sets each lane of D to S's lane times x^8 in GF(2^128):
// the lane shifted up one byte, and the byte shifted out (moved down to
// byte 0) carry-less multiplied by 0x87 and folded back in.
#define MULX8(S, D, T) \
	VPSRLDQ $15, S, T; \
	VPCLMULQDQ $0x00, Z8, T, T; \
	VPSLLDQ $1, S, D; \
	VPXORQ T, D, D

// ALL4(OP) applies OP Z9, Zi, Zi to the four block registers.
#define ALL4(OP) \
	OP Z9, Z0, Z0; \
	OP Z9, Z1, Z1; \
	OP Z9, Z2, Z2; \
	OP Z9, Z3, Z3

// XTS16(ROUND, LAST) is the body both directions share. Tweaks t0..t7 come
// in at (R9); t8..t15 are t0..t7 times x^8, and after every group each
// register steps on by x^16, as two x^8 steps. Per group of 256 bytes:
// load all four registers (before any store, so dst may equal src), XOR in
// the tweak and round key 0 at once, the rounds, XOR the tweak back, store.
#define XTS16(ROUND, LAST) \
	VBROADCASTI32X4 xtsPoly<>(SB), Z8; \
	VMOVDQU64 (R9), Z4; \
	VMOVDQU64 64(R9), Z5; \
	MULX8(Z4, Z6, Z10); \
	MULX8(Z5, Z7, Z11); \
	DECQ R8; \
group: \
	VMOVDQU64 (SI), Z0; \
	VMOVDQU64 64(SI), Z1; \
	VMOVDQU64 128(SI), Z2; \
	VMOVDQU64 192(SI), Z3; \
	VBROADCASTI32X4 (DX), Z9; \
	VPTERNLOGQ $0x96, Z9, Z4, Z0; \
	VPTERNLOGQ $0x96, Z9, Z5, Z1; \
	VPTERNLOGQ $0x96, Z9, Z6, Z2; \
	VPTERNLOGQ $0x96, Z9, Z7, Z3; \
	MOVQ DX, AX; \
	MOVQ R8, BX; \
round: \
	ADDQ $16, AX; \
	VBROADCASTI32X4 (AX), Z9; \
	ALL4(ROUND); \
	DECQ BX; \
	JNZ round; \
	VBROADCASTI32X4 16(AX), Z9; \
	ALL4(LAST); \
	VPXORQ Z4, Z0, Z0; \
	VPXORQ Z5, Z1, Z1; \
	VPXORQ Z6, Z2, Z2; \
	VPXORQ Z7, Z3, Z3; \
	VMOVDQU64 Z0, (DI); \
	VMOVDQU64 Z1, 64(DI); \
	VMOVDQU64 Z2, 128(DI); \
	VMOVDQU64 Z3, 192(DI); \
	MULX8(Z6, Z4, Z10); \
	MULX8(Z7, Z5, Z11); \
	MULX8(Z4, Z6, Z12); \
	MULX8(Z5, Z7, Z13); \
	ADDQ $256, SI; \
	ADDQ $256, DI; \
	DECQ CX; \
	JNZ group; \
	VMOVDQU X4, (R9); \
	VZEROUPPER; \
	RET

// func xtsEnc16(rk *[240]byte, rounds int, tweaks *[128]byte, dst, src *byte, groups int)
TEXT ·xtsEnc16(SB), NOSPLIT, $0-48
	MOVQ rk+0(FP), DX
	MOVQ rounds+8(FP), R8
	MOVQ tweaks+16(FP), R9
	MOVQ dst+24(FP), DI
	MOVQ src+32(FP), SI
	MOVQ groups+40(FP), CX
	XTS16(VAESENC, VAESENCLAST)

// func xtsDec16(rk *[240]byte, rounds int, tweaks *[128]byte, dst, src *byte, groups int)
TEXT ·xtsDec16(SB), NOSPLIT, $0-48
	MOVQ rk+0(FP), DX
	MOVQ rounds+8(FP), R8
	MOVQ tweaks+16(FP), R9
	MOVQ dst+24(FP), DI
	MOVQ src+32(FP), SI
	MOVQ groups+40(FP), CX
	XTS16(VAESDEC, VAESDECLAST)
