//go:build amd64

#include "textflag.h"

// AVX2 butterfly kernels (see DESIGN.md §5.6). Each routine applies the
// SAME per-element operation sequence as its scalar twin (bfly4s or
// bfly4g in blocked.go), just four butterflies per instruction: only
// VADDPD/VSUBPD/VMULPD are used — which round per lane exactly like
// the scalar ADDSD/SUBSD/MULSD — and no FMA is ever emitted (the Go spec
// does not license contraction and neither do we), so every result is
// BIT-IDENTICAL to the pure-Go path. The exact-equality kernel tests run
// against these bodies on AVX2 hosts and against the Go bodies elsewhere.
//
// Lane layout shared by all bodies: Y0..Y3 hold e0..e3 of four independent
// butterflies (one column each), Y6/Y7 (Y12..Y15 in the first-pass kernel)
// the broadcast stage factors, Y4/Y5 are temporaries. The general-kind
// bodies at the end need four entries per stage and say where they keep
// them.

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

// ---------------------------------------------------------------------------
// General-kind bodies (DESIGN.md §5.6): the S bodies' traversals and layout
// moves with the four-multiply butterfly of bfly4g, u′ = a·u + b·w and
// w′ = c·u + d·w, for factors [[a,b],[c,d]] with no stochastic identity.
// Each product is rounded by its own VMULPD and each sum by its own VADDPD,
// as the Go expression a*t1 + b*t2 rounds them (no FMA, and VADDPD's
// operand order differs from it only by add commutativity, exact in
// IEEE-754), so the G bodies are bit-identical to the Go path at both
// widths. A factor is four consecutive float64s (Factor2: A, B, C, D), a
// pair of them eight.

// One radix-2 general stage on the lane pair (U, W) with the broadcast
// factor registers A, B, C, D and temporaries T1, T2.
#define BFLY2G(U, W, A, B, C, D, T1, T2) \
	VMULPD A, U, T1; \
	VMULPD C, U, U; \
	VMULPD B, W, T2; \
	VMULPD D, W, W; \
	VADDPD U, W, W; \
	VADDPD T2, T1, U

// Two fused general stages, the sequence of bfly4g: stage (A1, B1, C1, D1)
// on the pairs (E0,E1), (E2,E3), then stage (A2, B2, C2, D2) on (E0,E2),
// (E1,E3); T0..T3 are temporaries.
#define BFLYG(E0, E1, E2, E3, A1, B1, C1, D1, A2, B2, C2, D2, T0, T1, T2, T3) \
	BFLY2G(E0, E1, A1, B1, C1, D1, T0, T1); \
	BFLY2G(E2, E3, A1, B1, C1, D1, T2, T3); \
	BFLY2G(E0, E2, A2, B2, C2, D2, T0, T1); \
	BFLY2G(E1, E3, A2, B2, C2, D2, T2, T3)

// Broadcasts the factor pair at P into A1..D2 (YMM or ZMM).
#define BCASTG2(P, A1, B1, C1, D1, A2, B2, C2, D2) \
	VBROADCASTSD 0(P), A1; \
	VBROADCASTSD 8(P), B1; \
	VBROADCASTSD 16(P), C1; \
	VBROADCASTSD 24(P), D1; \
	VBROADCASTSD 32(P), A2; \
	VBROADCASTSD 40(P), B2; \
	VBROADCASTSD 48(P), C2; \
	VBROADCASTSD 56(P), D2

// The first-pass stage of the AVX2 body, where sixteen YMM registers hold
// the block, its transpose temporaries and the butterfly temporaries but
// not every factor: broadcast the factor at F into Y12..Y15, then one
// general stage on the pairs (P0,P1) and (P2,P3).
#define GSTAGE(F, P0, P1, P2, P3) \
	VBROADCASTSD 0(F), Y12; \
	VBROADCASTSD 8(F), Y13; \
	VBROADCASTSD 16(F), Y14; \
	VBROADCASTSD 24(F), Y15; \
	BFLY2G(P0, P1, Y12, Y13, Y14, Y15, Y4, Y5); \
	BFLY2G(P2, P3, Y12, Y13, Y14, Y15, Y6, Y7)

// func avxFirstG(dst, src, scale *float64, n, pairs int, fs *Factor2)
// avxFirstS with general stages: per 16-element block, the loads (times
// scale), the transpose, stages fs[0] and fs[1], the transpose back, for
// pairs = 2 stages fs[2] and fs[3] on the rows, and the stores. Every
// element sees Mul → bfly4g(fs[0], fs[1]) → bfly4g(fs[2], fs[3]), the Go
// sequence. n > 0, a multiple of 16; dst may equal src.
TEXT ·avxFirstG(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ scale+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ pairs+32(FP), R8
	MOVQ fs+40(FP), R9
	LEAQ 32(R9), R10
	LEAQ 64(R9), R11
	LEAQ 96(R9), R12
	SHLQ $3, CX
	XORQ AX, AX
fgLoop:
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD 32(SI)(AX*1), Y1
	VMOVUPD 64(SI)(AX*1), Y2
	VMOVUPD 96(SI)(AX*1), Y3
	TESTQ DX, DX
	JZ    fgStages
	VMULPD (DX)(AX*1), Y0, Y0
	VMULPD 32(DX)(AX*1), Y1, Y1
	VMULPD 64(DX)(AX*1), Y2, Y2
	VMULPD 96(DX)(AX*1), Y3, Y3
fgStages:
	TRANSPOSE
	GSTAGE(R9, Y0, Y1, Y2, Y3)
	GSTAGE(R10, Y0, Y2, Y1, Y3)
	TRANSPOSE
	CMPQ R8, $2
	JNE  fgStore
	GSTAGE(R11, Y0, Y1, Y2, Y3)
	GSTAGE(R12, Y0, Y2, Y1, Y3)
fgStore:
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	ADDQ $128, AX
	CMPQ AX, CX
	JLT  fgLoop
	VZEROUPPER
	RET

// func avxTilePairG(p *float64, n, stride int, fs *Factor2)
// avxTilePairS with the general stages fs[0] and fs[1]: stride ≥ 4 a
// multiple of 4, n a multiple of 4·stride.
TEXT ·avxTilePairG(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), SI
	MOVQ stride+16(FP), DX
	MOVQ fs+24(FP), AX
	BCASTG2(AX, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	SHLQ $3, DX
	SHLQ $3, SI
	ADDQ DI, SI
tpgBlock:
	CMPQ DI, SI
	JGE  tpgDone
	MOVQ DI, R8
	LEAQ (DI)(DX*1), R9
	LEAQ (DI)(DX*2), R10
	LEAQ (R9)(DX*2), R11
	MOVQ DX, CX
tpgCol:
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y1
	VMOVUPD (R10), Y2
	VMOVUPD (R11), Y3
	BFLYG(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15, Y4, Y5, Y6, Y7)
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, (R9)
	VMOVUPD Y2, (R10)
	VMOVUPD Y3, (R11)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $32, CX
	JNZ  tpgCol
	LEAQ (DI)(DX*4), DI
	JMP  tpgBlock
tpgDone:
	VZEROUPPER
	RET

// func avxQuadG(r0, r1, r2, r3 *float64, n int, fs *Factor2)
// avxQuadS with the general stages fs[0] and fs[1]; n > 0, a multiple of 4.
TEXT ·avxQuadG(SB), NOSPLIT, $0-48
	MOVQ r0+0(FP), R8
	MOVQ r1+8(FP), R9
	MOVQ r2+16(FP), R10
	MOVQ r3+24(FP), R11
	MOVQ n+32(FP), CX
	MOVQ fs+40(FP), DX
	BCASTG2(DX, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	SHLQ $3, CX
qgLoop:
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y1
	VMOVUPD (R10), Y2
	VMOVUPD (R11), Y3
	BFLYG(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15, Y4, Y5, Y6, Y7)
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, (R9)
	VMOVUPD Y2, (R10)
	VMOVUPD Y3, (R11)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $32, CX
	JNZ  qgLoop
	VZEROUPPER
	RET

// func avxPairG(u, w *float64, n int, fs *Factor2)
// avxPairS with the general stage fs[0]; n > 0, a multiple of 4.
TEXT ·avxPairG(SB), NOSPLIT, $0-32
	MOVQ u+0(FP), R8
	MOVQ w+8(FP), R9
	MOVQ n+16(FP), CX
	MOVQ fs+24(FP), DX
	VBROADCASTSD 0(DX), Y12
	VBROADCASTSD 8(DX), Y13
	VBROADCASTSD 16(DX), Y14
	VBROADCASTSD 24(DX), Y15
	SHLQ $3, CX
pgLoop:
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y1
	BFLY2G(Y0, Y1, Y12, Y13, Y14, Y15, Y4, Y5)
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, (R9)
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $32, CX
	JNZ  pgLoop
	VZEROUPPER
	RET

// func avx512FirstG(dst, src, scale *float64, n, pairs int, fs *Factor2)
// avx512FirstS with general stages: the same layout moves, with
// BFLYG(fs[0], fs[1]) and, for pairs = 2, BFLYG(fs[2], fs[3]) in place of
// the two ZBFLYS. The factors stay in Z16..Z31 for the whole call (fs[2]
// and fs[3] are read only for pairs = 2). n > 0, a multiple of 32; dst may
// equal src.
TEXT ·avx512FirstG(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ scale+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ pairs+32(FP), R8
	MOVQ fs+40(FP), R9
	BCASTG2(R9, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
	CMPQ R8, $2
	JNE  zfgInit
	LEAQ 64(R9), R9
	BCASTG2(R9, Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31)
zfgInit:
	SHLQ $3, CX
	XORQ AX, AX
zfgLoop:
	VMOVUPD (SI)(AX*1), Z0
	VMOVUPD 64(SI)(AX*1), Z1
	VMOVUPD 128(SI)(AX*1), Z2
	VMOVUPD 192(SI)(AX*1), Z3
	TESTQ DX, DX
	JZ    zfgStages
	VMULPD (DX)(AX*1), Z0, Z0
	VMULPD 64(DX)(AX*1), Z1, Z1
	VMULPD 128(DX)(AX*1), Z2, Z2
	VMULPD 192(DX)(AX*1), Z3, Z3
zfgStages:
	ZUNPCK(Z0, Z1, Z8, Z9)
	ZUNPCK(Z2, Z3, Z10, Z11)
	ZROT(Z8, Z10, Z0, Z2)
	ZROT(Z9, Z11, Z1, Z3)
	BFLYG(Z0, Z1, Z2, Z3, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z4, Z5, Z6, Z7)
	ZUNPCK(Z0, Z1, Z8, Z9)
	ZUNPCK(Z2, Z3, Z10, Z11)
	ZROT(Z8, Z10, Z0, Z1)
	ZROT(Z9, Z11, Z2, Z3)
	CMPQ R8, $2
	JNE  zfgStore
	BFLYG(Z0, Z1, Z2, Z3, Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31, Z4, Z5, Z6, Z7)
zfgStore:
	ZROT(Z0, Z1, Z8, Z10)
	ZROT(Z2, Z3, Z9, Z11)
	VMOVUPD Z8, (DI)(AX*1)
	VMOVUPD Z9, 64(DI)(AX*1)
	VMOVUPD Z10, 128(DI)(AX*1)
	VMOVUPD Z11, 192(DI)(AX*1)
	ADDQ $256, AX
	CMPQ AX, CX
	JLT  zfgLoop
	VZEROUPPER
	RET

// func avx512TilePairG(p *float64, n, stride int, fs *Factor2)
// avxTilePairG eight columns per iteration: stride ≥ 8 a multiple of 8, n a
// multiple of 4·stride.
TEXT ·avx512TilePairG(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), SI
	MOVQ stride+16(FP), DX
	MOVQ fs+24(FP), AX
	BCASTG2(AX, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	SHLQ $3, DX
	SHLQ $3, SI
	ADDQ DI, SI
ztpgBlock:
	CMPQ DI, SI
	JGE  ztpgDone
	MOVQ DI, R8
	LEAQ (DI)(DX*1), R9
	LEAQ (DI)(DX*2), R10
	LEAQ (R9)(DX*2), R11
	MOVQ DX, CX
ztpgCol:
	VMOVUPD (R8), Z0
	VMOVUPD (R9), Z1
	VMOVUPD (R10), Z2
	VMOVUPD (R11), Z3
	BFLYG(Z0, Z1, Z2, Z3, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z4, Z5, Z6, Z7)
	VMOVUPD Z0, (R8)
	VMOVUPD Z1, (R9)
	VMOVUPD Z2, (R10)
	VMOVUPD Z3, (R11)
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	SUBQ $64, CX
	JNZ  ztpgCol
	LEAQ (DI)(DX*4), DI
	JMP  ztpgBlock
ztpgDone:
	VZEROUPPER
	RET

// func avx512QuadG(r0, r1, r2, r3 *float64, n int, fs *Factor2)
// avxQuadG eight columns per iteration, with one four-column YMM step for
// an n ≡ 4 (mod 8) tail (the factors sit in Z8..Z15, whose low halves the
// VEX-encoded tail reads); n > 0, a multiple of 4.
TEXT ·avx512QuadG(SB), NOSPLIT, $0-48
	MOVQ r0+0(FP), R8
	MOVQ r1+8(FP), R9
	MOVQ r2+16(FP), R10
	MOVQ r3+24(FP), R11
	MOVQ n+32(FP), CX
	MOVQ fs+40(FP), DX
	BCASTG2(DX, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	SHLQ $3, CX
	CMPQ CX, $64
	JLT  zqgTail
zqgLoop:
	VMOVUPD (R8), Z0
	VMOVUPD (R9), Z1
	VMOVUPD (R10), Z2
	VMOVUPD (R11), Z3
	BFLYG(Z0, Z1, Z2, Z3, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z4, Z5, Z6, Z7)
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
	JGE  zqgLoop
zqgTail:
	TESTQ CX, CX
	JZ    zqgDone
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y1
	VMOVUPD (R10), Y2
	VMOVUPD (R11), Y3
	BFLYG(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15, Y4, Y5, Y6, Y7)
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, (R9)
	VMOVUPD Y2, (R10)
	VMOVUPD Y3, (R11)
zqgDone:
	VZEROUPPER
	RET

// func avx512PairG(u, w *float64, n int, fs *Factor2)
// avxPairG eight columns per iteration, with one four-column YMM step for
// an n ≡ 4 (mod 8) tail; n > 0, a multiple of 4.
TEXT ·avx512PairG(SB), NOSPLIT, $0-32
	MOVQ u+0(FP), R8
	MOVQ w+8(FP), R9
	MOVQ n+16(FP), CX
	MOVQ fs+24(FP), DX
	VBROADCASTSD 0(DX), Z12
	VBROADCASTSD 8(DX), Z13
	VBROADCASTSD 16(DX), Z14
	VBROADCASTSD 24(DX), Z15
	SHLQ $3, CX
	CMPQ CX, $64
	JLT  zpgTail
zpgLoop:
	VMOVUPD (R8), Z0
	VMOVUPD (R9), Z1
	BFLY2G(Z0, Z1, Z12, Z13, Z14, Z15, Z4, Z5)
	VMOVUPD Z0, (R8)
	VMOVUPD Z1, (R9)
	ADDQ $64, R8
	ADDQ $64, R9
	SUBQ $64, CX
	CMPQ CX, $64
	JGE  zpgLoop
zpgTail:
	TESTQ CX, CX
	JZ    zpgDone
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y1
	BFLY2G(Y0, Y1, Y12, Y13, Y14, Y15, Y4, Y5)
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, (R9)
zpgDone:
	VZEROUPPER
	RET
