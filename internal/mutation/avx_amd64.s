//go:build amd64

#include "textflag.h"

// AVX2 butterfly kernels (see DESIGN.md §5.6). Each routine applies the
// SAME per-element operation sequence as its scalar twin (bfly4s / bfly4h
// in blocked.go / fwht.go), just four butterflies per instruction:
// only VADDPD/VSUBPD/VMULPD are used — which round per lane exactly like
// the scalar ADDSD/SUBSD/MULSD — and no FMA is ever emitted (the Go spec
// does not license contraction and neither do we), so every result is
// BIT-IDENTICAL to the pure-Go path. The exact-equality kernel tests run
// against these bodies on AVX2 hosts and against the Go bodies elsewhere.
//
// Lane layout shared by all bodies: Y0..Y3 hold e0..e3 of four independent
// butterflies (one column each), Y6/Y7 (Y12..Y15 in the first-pass kernel)
// the broadcast stage factors, Y4/Y5 are temporaries.

// One radix-2 stage on the lane pair (U, W) with factor register B and
// temporary T. Stochastic (a+b = 1):  d = b·(w−u); u += d; w −= d.
// (VMULPD operand order differs from the scalar b·(x−y) only by mul
// commutativity, which is exact in IEEE-754.)
#define BFLY2S(U, W, B, T) \
	VSUBPD U, W, T; \
	VMULPD B, T, T; \
	VADDPD T, U, U; \
	VSUBPD T, W, W

// Two fused stochastic stages with factors B1, B2, the sequence of bfly4s:
// stage B1 on the pairs (e0,e1), (e2,e3), then stage B2 on (e0,e2), (e1,e3).
#define BFLYS(B1, B2) \
	BFLY2S(Y0, Y1, B1, Y4); \
	BFLY2S(Y2, Y3, B1, Y5); \
	BFLY2S(Y0, Y2, B2, Y4); \
	BFLY2S(Y1, Y3, B2, Y5)

// Two fused Hadamard stages, the sequence of bfly4h:
// e0,e1 = e0+e1, e0−e1;  e2,e3 = e2+e3, e2−e3;
// e0,e2 = e0+e2, e0−e2;  e1,e3 = e1+e3, e1−e3.
// Registers rename through the flow: afterwards e0=Y2, e1=Y0, e2=Y3, e3=Y1.
#define BFLYH \
	VADDPD Y1, Y0, Y4; \
	VSUBPD Y1, Y0, Y5; \
	VADDPD Y3, Y2, Y0; \
	VSUBPD Y3, Y2, Y1; \
	VADDPD Y0, Y4, Y2; \
	VSUBPD Y0, Y4, Y3; \
	VADDPD Y1, Y5, Y0; \
	VSUBPD Y1, Y5, Y1

// 4×4 transpose of the rows Y0..Y3 (temporaries Y8..Y11): afterwards Yc
// holds column c. It only moves data, and applied twice it is the identity.
#define TRANSPOSE \
	VUNPCKLPD Y1, Y0, Y8; \
	VUNPCKHPD Y1, Y0, Y9; \
	VUNPCKLPD Y3, Y2, Y10; \
	VUNPCKHPD Y3, Y2, Y11; \
	VPERM2F128 $0x20, Y10, Y8, Y0; \
	VPERM2F128 $0x20, Y11, Y9, Y1; \
	VPERM2F128 $0x31, Y10, Y8, Y2; \
	VPERM2F128 $0x31, Y11, Y9, Y3

// func avxQuadS(r0, r1, r2, r3 *float64, n int, b1, b2 float64)
// Columns i of the four rows form one butterfly; n > 0, a multiple of 4.
TEXT ·avxQuadS(SB), NOSPLIT, $0-56
	MOVQ r0+0(FP), R8
	MOVQ r1+8(FP), R9
	MOVQ r2+16(FP), R10
	MOVQ r3+24(FP), R11
	MOVQ n+32(FP), CX
	VBROADCASTSD b1+40(FP), Y6
	VBROADCASTSD b2+48(FP), Y7
	SHLQ $3, CX
qsLoop:
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y1
	VMOVUPD (R10), Y2
	VMOVUPD (R11), Y3
	BFLYS(Y6, Y7)
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, (R9)
	VMOVUPD Y2, (R10)
	VMOVUPD Y3, (R11)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $32, CX
	JNZ  qsLoop
	VZEROUPPER
	RET

// func avxQuadH(r0, r1, r2, r3 *float64, n int)
TEXT ·avxQuadH(SB), NOSPLIT, $0-40
	MOVQ r0+0(FP), R8
	MOVQ r1+8(FP), R9
	MOVQ r2+16(FP), R10
	MOVQ r3+24(FP), R11
	MOVQ n+32(FP), CX
	SHLQ $3, CX
qhLoop:
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y1
	VMOVUPD (R10), Y2
	VMOVUPD (R11), Y3
	BFLYH
	VMOVUPD Y2, (R8)
	VMOVUPD Y0, (R9)
	VMOVUPD Y3, (R10)
	VMOVUPD Y1, (R11)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $32, CX
	JNZ  qhLoop
	VZEROUPPER
	RET

// func avxTilePairS(p *float64, n, stride int, b1, b2 float64)
// Whole-tile fused stochastic stage pair: for each aligned 4·stride block
// the four lanes are the contiguous stride-length segments, swept 4 columns
// per iteration. stride ≥ 4 a multiple of 4; n a multiple of 4·stride.
// Keeping both loops in assembly makes the small strides (stride = 4 ⇒ one
// vector iteration per block) free of per-block call overhead.
TEXT ·avxTilePairS(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), SI
	MOVQ stride+16(FP), DX
	VBROADCASTSD b1+24(FP), Y6
	VBROADCASTSD b2+32(FP), Y7
	SHLQ $3, DX
	SHLQ $3, SI
	ADDQ DI, SI
tpsBlock:
	CMPQ DI, SI
	JGE  tpsDone
	MOVQ DI, R8
	LEAQ (DI)(DX*1), R9
	LEAQ (DI)(DX*2), R10
	LEAQ (R9)(DX*2), R11
	MOVQ DX, CX
tpsCol:
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y1
	VMOVUPD (R10), Y2
	VMOVUPD (R11), Y3
	BFLYS(Y6, Y7)
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, (R9)
	VMOVUPD Y2, (R10)
	VMOVUPD Y3, (R11)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $32, CX
	JNZ  tpsCol
	LEAQ (DI)(DX*4), DI
	JMP  tpsBlock
tpsDone:
	VZEROUPPER
	RET

// func avxTileHad(p *float64, n, stride int)
// Whole-tile fused Hadamard stage pair, same block/column structure as
// avxTilePairS.
TEXT ·avxTileHad(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), SI
	MOVQ stride+16(FP), DX
	SHLQ $3, DX
	SHLQ $3, SI
	ADDQ DI, SI
thBlock:
	CMPQ DI, SI
	JGE  thDone
	MOVQ DI, R8
	LEAQ (DI)(DX*1), R9
	LEAQ (DI)(DX*2), R10
	LEAQ (R9)(DX*2), R11
	MOVQ DX, CX
thCol:
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y1
	VMOVUPD (R10), Y2
	VMOVUPD (R11), Y3
	BFLYH
	VMOVUPD Y2, (R8)
	VMOVUPD Y0, (R9)
	VMOVUPD Y3, (R10)
	VMOVUPD Y1, (R11)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $32, CX
	JNZ  thCol
	LEAQ (DI)(DX*4), DI
	JMP  thBlock
thDone:
	VZEROUPPER
	RET

// func avxFirstS(dst, src, scale *float64, n, pairs int, b1, b2, b3, b4 float64)
// The first tile pass of a stochastic run, register-resident: per 16-element
// block, four row loads from src (times scale when scale is non-nil, the
// product vec.Mul rounds), a transpose that makes strides 1 and 2 vertical,
// BFLYS(b1, b2), the transpose back, then for pairs = 2 strides 4 and 8 as
// BFLYS(b3, b4) on the rows, and four stores to dst. Lane k of the
// transposed block is the quad 4k..4k+3 and lane j of the rows the column
// j, j+4, j+8, j+12, so every element sees exactly the sequence Mul →
// bfly4s(b1, b2) → bfly4s(b3, b4) of the Go tile pass. n > 0, a multiple of
// 16; dst may equal src.
TEXT ·avxFirstS(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ scale+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ pairs+32(FP), R8
	VBROADCASTSD b1+40(FP), Y12
	VBROADCASTSD b2+48(FP), Y13
	VBROADCASTSD b3+56(FP), Y14
	VBROADCASTSD b4+64(FP), Y15
	SHLQ $3, CX
	XORQ AX, AX
fsLoop:
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD 32(SI)(AX*1), Y1
	VMOVUPD 64(SI)(AX*1), Y2
	VMOVUPD 96(SI)(AX*1), Y3
	TESTQ DX, DX
	JZ    fsStages
	VMULPD (DX)(AX*1), Y0, Y0
	VMULPD 32(DX)(AX*1), Y1, Y1
	VMULPD 64(DX)(AX*1), Y2, Y2
	VMULPD 96(DX)(AX*1), Y3, Y3
fsStages:
	TRANSPOSE
	BFLYS(Y12, Y13)
	TRANSPOSE
	CMPQ R8, $2
	JNE  fsStore
	BFLYS(Y14, Y15)
fsStore:
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	ADDQ $128, AX
	CMPQ AX, CX
	JLT  fsLoop
	VZEROUPPER
	RET

// func avxPairS(u, w *float64, n int, b float64)
// One radix-2 stochastic stage across two row chunks: column i is one
// butterfly. n > 0, a multiple of 4.
TEXT ·avxPairS(SB), NOSPLIT, $0-32
	MOVQ u+0(FP), R8
	MOVQ w+8(FP), R9
	MOVQ n+16(FP), CX
	VBROADCASTSD b+24(FP), Y6
	SHLQ $3, CX
psLoop:
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y1
	BFLY2S(Y0, Y1, Y6, Y4)
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, (R9)
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $32, CX
	JNZ  psLoop
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// AVX-512 bodies (DESIGN.md §5.6): the ZMM twins of avxFirstS,
// avxTilePairS, avxQuadS and avxPairS, eight butterflies per instruction.
// Each applies the per-element VSUBPD/VMULPD/VADDPD sequence of its YMM
// twin and nothing else, so the three kernel tiers are bit-identical.
// Layout changes only move data: they are VUNPCKLPD/VUNPCKHPD and
// VSHUFF64X2, never arithmetic.

// ZBFLYS is BFLYS on Z0..Z3 with temporaries Z4/Z5: stage B1 on the pairs
// (Z0,Z1), (Z2,Z3), then stage B2 on (Z0,Z2), (Z1,Z3).
#define ZBFLYS(B1, B2) \
	BFLY2S(Z0, Z1, B1, Z4); \
	BFLY2S(Z2, Z3, B1, Z5); \
	BFLY2S(Z0, Z2, B2, Z4); \
	BFLY2S(Z1, Z3, B2, Z5)

// ZUNPCK swaps lane bit 0 with the register bit that tells A from B:
// LO ← [A0 B0 A2 B2 A4 B4 A6 B6], HI ← [A1 B1 A3 B3 A5 B5 A7 B7].
#define ZUNPCK(A, B, LO, HI) \
	VUNPCKLPD B, A, LO; \
	VUNPCKHPD B, A, HI

// ZROT rotates three index bits of a register pair through 128-bit lane
// moves: with q the 128-bit lane index (q = l1 + 2·l2 over lane bits l1,
// l2) and r the bit that tells A from B, LO ← [A.q0 A.q2 B.q0 B.q2] and
// HI ← [A.q1 A.q3 B.q1 B.q3], so the new r is the old l1, the new l1 the
// old l2 and the new l2 the old r. Applied three times it is the identity.
#define ZROT(A, B, LO, HI) \
	VSHUFF64X2 $0x88, B, A, LO; \
	VSHUFF64X2 $0xDD, B, A, HI

// func avx512FirstS(dst, src, scale *float64, n, pairs int, b1, b2, b3, b4 float64)
// avxFirstS on 32-element blocks. A block is four rows of eight, element
// e = 8·r + l with index bits e0..e2 in the lane l and e3, e4 in the row r.
// A stage is vertical (one BFLY2S per register pair) when its bit is a
// register bit, so the body moves the stage bits into the registers:
//
//	load:            rows R0..R3:          registers (e3, e4), lanes (e0, e1, e2)
//	ZUNPCK, ZROT:    registers (e0, e1), lanes (e3, e2, e4) → ZBFLYS(b1, b2)
//	ZUNPCK, ZROT:    registers (e2, e3), lanes (e0, e4, e1) → ZBFLYS(b3, b4)
//	ZROT:            back to the rows, stored to dst
//
// (Zk holds the elements whose first listed register bit is k mod 2 and
// whose second is k/2, so ZBFLYS pairs them on the first bit, then the
// second.) Every element goes through Mul → bfly4s(b1, b2) → bfly4s(b3, b4), the Go
// and AVX2 sequence; pairs = 1 skips the second ZBFLYS but not the layout
// changes. n > 0, a multiple of 32; dst may equal src.
TEXT ·avx512FirstS(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ scale+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ pairs+32(FP), R8
	VBROADCASTSD b1+40(FP), Z12
	VBROADCASTSD b2+48(FP), Z13
	VBROADCASTSD b3+56(FP), Z14
	VBROADCASTSD b4+64(FP), Z15
	SHLQ $3, CX
	XORQ AX, AX
zfsLoop:
	VMOVUPD (SI)(AX*1), Z0
	VMOVUPD 64(SI)(AX*1), Z1
	VMOVUPD 128(SI)(AX*1), Z2
	VMOVUPD 192(SI)(AX*1), Z3
	TESTQ DX, DX
	JZ    zfsStages
	VMULPD (DX)(AX*1), Z0, Z0
	VMULPD 64(DX)(AX*1), Z1, Z1
	VMULPD 128(DX)(AX*1), Z2, Z2
	VMULPD 192(DX)(AX*1), Z3, Z3
zfsStages:
	ZUNPCK(Z0, Z1, Z8, Z9)
	ZUNPCK(Z2, Z3, Z10, Z11)
	ZROT(Z8, Z10, Z0, Z2)
	ZROT(Z9, Z11, Z1, Z3)
	ZBFLYS(Z12, Z13)
	ZUNPCK(Z0, Z1, Z8, Z9)
	ZUNPCK(Z2, Z3, Z10, Z11)
	ZROT(Z8, Z10, Z0, Z1)
	ZROT(Z9, Z11, Z2, Z3)
	CMPQ R8, $2
	JNE  zfsStore
	ZBFLYS(Z14, Z15)
zfsStore:
	ZROT(Z0, Z1, Z8, Z10)
	ZROT(Z2, Z3, Z9, Z11)
	VMOVUPD Z8, (DI)(AX*1)
	VMOVUPD Z9, 64(DI)(AX*1)
	VMOVUPD Z10, 128(DI)(AX*1)
	VMOVUPD Z11, 192(DI)(AX*1)
	ADDQ $256, AX
	CMPQ AX, CX
	JLT  zfsLoop
	VZEROUPPER
	RET

// func avx512TilePairS(p *float64, n, stride int, b1, b2 float64)
// avxTilePairS eight columns per iteration: stride ≥ 8 a multiple of 8, n a
// multiple of 4·stride.
TEXT ·avx512TilePairS(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), SI
	MOVQ stride+16(FP), DX
	VBROADCASTSD b1+24(FP), Z6
	VBROADCASTSD b2+32(FP), Z7
	SHLQ $3, DX
	SHLQ $3, SI
	ADDQ DI, SI
ztpsBlock:
	CMPQ DI, SI
	JGE  ztpsDone
	MOVQ DI, R8
	LEAQ (DI)(DX*1), R9
	LEAQ (DI)(DX*2), R10
	LEAQ (R9)(DX*2), R11
	MOVQ DX, CX
ztpsCol:
	VMOVUPD (R8), Z0
	VMOVUPD (R9), Z1
	VMOVUPD (R10), Z2
	VMOVUPD (R11), Z3
	ZBFLYS(Z6, Z7)
	VMOVUPD Z0, (R8)
	VMOVUPD Z1, (R9)
	VMOVUPD Z2, (R10)
	VMOVUPD Z3, (R11)
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	SUBQ $64, CX
	JNZ  ztpsCol
	LEAQ (DI)(DX*4), DI
	JMP  ztpsBlock
ztpsDone:
	VZEROUPPER
	RET

// func avx512QuadS(r0, r1, r2, r3 *float64, n int, b1, b2 float64)
// avxQuadS eight columns per iteration, with one four-column YMM step for
// an n ≡ 4 (mod 8) tail; n > 0, a multiple of 4.
TEXT ·avx512QuadS(SB), NOSPLIT, $0-56
	MOVQ r0+0(FP), R8
	MOVQ r1+8(FP), R9
	MOVQ r2+16(FP), R10
	MOVQ r3+24(FP), R11
	MOVQ n+32(FP), CX
	VBROADCASTSD b1+40(FP), Z6
	VBROADCASTSD b2+48(FP), Z7
	SHLQ $3, CX
	CMPQ CX, $64
	JLT  zqsTail
zqsLoop:
	VMOVUPD (R8), Z0
	VMOVUPD (R9), Z1
	VMOVUPD (R10), Z2
	VMOVUPD (R11), Z3
	ZBFLYS(Z6, Z7)
	VMOVUPD Z0, (R8)
	VMOVUPD Z1, (R9)
	VMOVUPD Z2, (R10)
	VMOVUPD Z3, (R11)
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	SUBQ $64, CX
	CMPQ CX, $64
	JGE  zqsLoop
zqsTail:
	TESTQ CX, CX
	JZ    zqsDone
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y1
	VMOVUPD (R10), Y2
	VMOVUPD (R11), Y3
	BFLYS(Y6, Y7)
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, (R9)
	VMOVUPD Y2, (R10)
	VMOVUPD Y3, (R11)
zqsDone:
	VZEROUPPER
	RET

// func avx512PairS(u, w *float64, n int, b float64)
// avxPairS eight columns per iteration, with one four-column YMM step for
// an n ≡ 4 (mod 8) tail; n > 0, a multiple of 4.
TEXT ·avx512PairS(SB), NOSPLIT, $0-32
	MOVQ u+0(FP), R8
	MOVQ w+8(FP), R9
	MOVQ n+16(FP), CX
	VBROADCASTSD b+24(FP), Z6
	SHLQ $3, CX
	CMPQ CX, $64
	JLT  zpsTail
zpsLoop:
	VMOVUPD (R8), Z0
	VMOVUPD (R9), Z1
	BFLY2S(Z0, Z1, Z6, Z4)
	VMOVUPD Z0, (R8)
	VMOVUPD Z1, (R9)
	ADDQ $64, R8
	ADDQ $64, R9
	SUBQ $64, CX
	CMPQ CX, $64
	JGE  zpsLoop
zpsTail:
	TESTQ CX, CX
	JZ    zpsDone
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y1
	BFLY2S(Y0, Y1, Y6, Y4)
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, (R9)
zpsDone:
	VZEROUPPER
	RET
