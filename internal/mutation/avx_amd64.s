//go:build amd64

#include "textflag.h"

// AVX2 butterfly kernels (see DESIGN.md §5.6). Each routine applies the
// SAME per-element operation sequence as its scalar twin (bfly4s / bfly4u /
// bfly4h in blocked.go / fwht.go), just four butterflies per instruction:
// only VADDPD/VSUBPD/VMULPD are used — which round per lane exactly like
// the scalar ADDSD/SUBSD/MULSD — and no FMA is ever emitted (the Go spec
// does not license contraction and neither do we), so every result is
// BIT-IDENTICAL to the pure-Go path. The exact-equality kernel tests run
// against these bodies on AVX2 hosts and against the Go bodies elsewhere.
//
// Lane layout shared by all bodies: Y0..Y3 hold e0..e3 of four independent
// butterflies (one column each), Y6/Y7 the broadcast stage factors, Y4/Y5
// are temporaries.

// Two fused stochastic stages (a+b = 1 reduced form), the sequence of
// bfly4s:  d = b1·(e1−e0); e0 += d; e1 −= d;  d = b1·(e3−e2); e2 += d;
// e3 −= d;  d = b2·(e2−e0); e0 += d; e2 −= d;  d = b2·(e3−e1); e1 += d;
// e3 −= d.  (VMULPD operand order differs from the scalar b·(x−y) only by
// mul commutativity, which is exact in IEEE-754.)
#define BFLYS \
	VSUBPD Y0, Y1, Y4; \
	VMULPD Y6, Y4, Y4; \
	VADDPD Y4, Y0, Y0; \
	VSUBPD Y4, Y1, Y1; \
	VSUBPD Y2, Y3, Y5; \
	VMULPD Y6, Y5, Y5; \
	VADDPD Y5, Y2, Y2; \
	VSUBPD Y5, Y3, Y3; \
	VSUBPD Y0, Y2, Y4; \
	VMULPD Y7, Y4, Y4; \
	VADDPD Y4, Y0, Y0; \
	VSUBPD Y4, Y2, Y2; \
	VSUBPD Y1, Y3, Y5; \
	VMULPD Y7, Y5, Y5; \
	VADDPD Y5, Y1, Y1; \
	VSUBPD Y5, Y3, Y3

// Two fused unit-difference stages (a−b = 1 reduced form), the sequence of
// bfly4u:  u = b1·(e0+e1); e0 += u; e1 += u;  u = b1·(e2+e3); e2 += u;
// e3 += u;  u = b2·(e0+e2); e0 += u; e2 += u;  u = b2·(e1+e3); e1 += u;
// e3 += u.
#define BFLYU \
	VADDPD Y1, Y0, Y4; \
	VMULPD Y6, Y4, Y4; \
	VADDPD Y4, Y0, Y0; \
	VADDPD Y4, Y1, Y1; \
	VADDPD Y3, Y2, Y5; \
	VMULPD Y6, Y5, Y5; \
	VADDPD Y5, Y2, Y2; \
	VADDPD Y5, Y3, Y3; \
	VADDPD Y2, Y0, Y4; \
	VMULPD Y7, Y4, Y4; \
	VADDPD Y4, Y0, Y0; \
	VADDPD Y4, Y2, Y2; \
	VADDPD Y3, Y1, Y5; \
	VMULPD Y7, Y5, Y5; \
	VADDPD Y5, Y1, Y1; \
	VADDPD Y5, Y3, Y3

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
	BFLYS
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

// func avxQuadU(r0, r1, r2, r3 *float64, n int, b1, b2 float64)
TEXT ·avxQuadU(SB), NOSPLIT, $0-56
	MOVQ r0+0(FP), R8
	MOVQ r1+8(FP), R9
	MOVQ r2+16(FP), R10
	MOVQ r3+24(FP), R11
	MOVQ n+32(FP), CX
	VBROADCASTSD b1+40(FP), Y6
	VBROADCASTSD b2+48(FP), Y7
	SHLQ $3, CX
quLoop:
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y1
	VMOVUPD (R10), Y2
	VMOVUPD (R11), Y3
	BFLYU
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, (R9)
	VMOVUPD Y2, (R10)
	VMOVUPD Y3, (R11)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $32, CX
	JNZ  quLoop
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
	BFLYS
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

// func avxTilePairU(p *float64, n, stride int, b1, b2 float64)
TEXT ·avxTilePairU(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), SI
	MOVQ stride+16(FP), DX
	VBROADCASTSD b1+24(FP), Y6
	VBROADCASTSD b2+32(FP), Y7
	SHLQ $3, DX
	SHLQ $3, SI
	ADDQ DI, SI
tpuBlock:
	CMPQ DI, SI
	JGE  tpuDone
	MOVQ DI, R8
	LEAQ (DI)(DX*1), R9
	LEAQ (DI)(DX*2), R10
	LEAQ (R9)(DX*2), R11
	MOVQ DX, CX
tpuCol:
	VMOVUPD (R8), Y0
	VMOVUPD (R9), Y1
	VMOVUPD (R10), Y2
	VMOVUPD (R11), Y3
	BFLYU
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, (R9)
	VMOVUPD Y2, (R10)
	VMOVUPD Y3, (R11)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $32, CX
	JNZ  tpuCol
	LEAQ (DI)(DX*4), DI
	JMP  tpuBlock
tpuDone:
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
