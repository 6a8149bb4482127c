//go:build amd64

#include "textflag.h"

// AVX2 bodies of the 4-lane kernels in lanes.go (see DESIGN.md §5.6). Each
// routine applies the SAME per-element operation sequence as its Go body,
// four elements per instruction, with only VMULPD/VADDPD/VSUBPD, which
// round each lane exactly like the scalar MULSD/ADDSD/SUBSD; no FMA is
// emitted, and operand order differs from the Go expressions only by the
// commutativity of + and ·, which IEEE-754 rounds identically. A sum keeps
// its four lanes in ONE YMM accumulator, lane ℓ summing elements ℓ, ℓ+4, …,
// so every result is BIT-IDENTICAL to the Go body. n is a positive
// multiple of 4 (element count); AX walks the byte offset up to CX = 8·n.

// HSUM leaves ((y0+y1)+y2)+y3 of the four lanes of Y in the low lane of X,
// Y's XMM half, with T1 and T2 as scratch: the lane combine of the
// reduction contract.
#define HSUM(Y, X, T1, T2) \
	VEXTRACTF128 $1, Y, T1; \
	VUNPCKHPD    X, X, T2; \
	VADDSD       T2, X, X; \
	VADDSD       T1, X, X; \
	VUNPCKHPD    T1, T1, T1; \
	VADDSD       T1, X, X

// func avxDot(x, y *float64, n int) float64
// Σ x·y: lanes in Y0.
TEXT ·avxDot(SB), NOSPLIT, $0-32
	MOVQ   x+0(FP), SI
	MOVQ   y+8(FP), DI
	MOVQ   n+16(FP), CX
	SHLQ   $3, CX
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0

dotLoop:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  (DI)(AX*1), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     dotLoop
	HSUM(Y0, X0, X1, X2)
	VMOVSD  X0, ret+24(FP)
	VZEROUPPER
	RET

// func avxShiftedDotSumSq(x, w *float64, n int, a float64) (dot, ssq float64)
// Pass A: t = w + a·x (t = w when a = ±0), Σ x·t in Y0, Σ t·t in Y1.
TEXT ·avxShiftedDotSumSq(SB), NOSPLIT, $0-48
	MOVQ         x+0(FP), SI
	MOVQ         w+8(FP), DI
	MOVQ         n+16(FP), CX
	SHLQ         $3, CX
	XORQ         AX, AX
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VBROADCASTSD a+24(FP), Y7
	VUCOMISD     X1, X7     // a == 0 (either sign, not NaN): read t = w
	JPS          pasShifted
	JNE          pasShifted

pasLoop:
	VMOVUPD (SI)(AX*1), Y2
	VMOVUPD (DI)(AX*1), Y3
	VMULPD  Y3, Y2, Y4
	VADDPD  Y4, Y0, Y0
	VMULPD  Y3, Y3, Y5
	VADDPD  Y5, Y1, Y1
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     pasLoop
	JMP     pasDone

pasShifted:
	VMOVUPD (SI)(AX*1), Y2
	VMULPD  Y2, Y7, Y3
	VADDPD  (DI)(AX*1), Y3, Y3
	VMULPD  Y3, Y2, Y4
	VADDPD  Y4, Y0, Y0
	VMULPD  Y3, Y3, Y5
	VADDPD  Y5, Y1, Y1
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     pasShifted

pasDone:
	HSUM(Y0, X0, X2, X3)
	HSUM(Y1, X1, X2, X3)
	VMOVSD X0, dot+32(FP)
	VMOVSD X1, ssq+40(FP)
	VZEROUPPER
	RET

// func avxShiftedResidualSumSq(x, w *float64, n int, a, lambda, c float64) float64
// Pass B: t = w + a·x (t = w when a = ±0), Σ (t − λ·x)² in Y0, w ← t·c.
TEXT ·avxShiftedResidualSumSq(SB), NOSPLIT, $0-56
	MOVQ         x+0(FP), SI
	MOVQ         w+8(FP), DI
	MOVQ         n+16(FP), CX
	SHLQ         $3, CX
	XORQ         AX, AX
	VXORPD       Y0, Y0, Y0
	VBROADCASTSD a+24(FP), Y7
	VBROADCASTSD lambda+32(FP), Y6
	VBROADCASTSD c+40(FP), Y5
	VUCOMISD     X0, X7
	JPS          pbsShifted
	JNE          pbsShifted

pbsLoop:
	VMOVUPD (SI)(AX*1), Y1
	VMOVUPD (DI)(AX*1), Y2
	VMULPD  Y1, Y6, Y3
	VSUBPD  Y3, Y2, Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y3, Y0, Y0
	VMULPD  Y5, Y2, Y2
	VMOVUPD Y2, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     pbsLoop
	JMP     pbsDone

pbsShifted:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  Y1, Y7, Y2
	VADDPD  (DI)(AX*1), Y2, Y2
	VMULPD  Y1, Y6, Y3
	VSUBPD  Y3, Y2, Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y3, Y0, Y0
	VMULPD  Y5, Y2, Y2
	VMOVUPD Y2, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     pbsShifted

pbsDone:
	HSUM(Y0, X0, X1, X2)
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// func avxLanczosTail(dst, w, v, u *float64, n int, c, alpha, beta float64) float64
// t = (c·w − α·v) − β·u, dst ← t, Σ t·t in Y0. Each iteration loads w
// before it stores dst, so dst may alias w.
TEXT ·avxLanczosTail(SB), NOSPLIT, $0-72
	MOVQ         dst+0(FP), R8
	MOVQ         w+8(FP), DI
	MOVQ         v+16(FP), SI
	MOVQ         u+24(FP), DX
	MOVQ         n+32(FP), CX
	SHLQ         $3, CX
	XORQ         AX, AX
	VXORPD       Y0, Y0, Y0
	VBROADCASTSD c+40(FP), Y5
	VBROADCASTSD alpha+48(FP), Y6
	VBROADCASTSD beta+56(FP), Y7

ltLoop:
	VMULPD  (DI)(AX*1), Y5, Y2
	VMULPD  (SI)(AX*1), Y6, Y1
	VSUBPD  Y1, Y2, Y2
	VMULPD  (DX)(AX*1), Y7, Y3
	VSUBPD  Y3, Y2, Y2
	VMOVUPD Y2, (R8)(AX*1)
	VMULPD  Y2, Y2, Y2
	VADDPD  Y2, Y0, Y0
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     ltLoop
	HSUM(Y0, X0, X1, X2)
	VMOVSD  X0, ret+64(FP)
	VZEROUPPER
	RET

// func avxSumSqLanes(acc *[4]float64, x *float64, n int)
// acc[ℓ] += Σ x·x over lane ℓ; the lanes stay uncombined.
TEXT ·avxSumSqLanes(SB), NOSPLIT, $0-24
	MOVQ    acc+0(FP), DX
	MOVQ    x+8(FP), SI
	MOVQ    n+16(FP), CX
	SHLQ    $3, CX
	XORQ    AX, AX
	VMOVUPD (DX), Y0

ssLoop:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  Y1, Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     ssLoop
	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

// func avxAXPY(a float64, x, y *float64, n int)
// y ← y + a·x.
TEXT ·avxAXPY(SB), NOSPLIT, $0-32
	VBROADCASTSD a+0(FP), Y7
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX
	SHLQ         $3, CX
	XORQ         AX, AX

axLoop:
	VMULPD  (SI)(AX*1), Y7, Y1
	VADDPD  (DI)(AX*1), Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     axLoop
	VZEROUPPER
	RET

// func avxMul(dst, x, y *float64, n int)
// dst ← x ⊙ y; each iteration loads before it stores, so dst may alias x
// or y.
TEXT ·avxMul(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ n+24(FP), CX
	SHLQ $3, CX
	XORQ AX, AX

mulLoop:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  (DX)(AX*1), Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     mulLoop
	VZEROUPPER
	RET

// ABSMASK sets every lane of Y to 0x7FF…F, the mask whose AND clears the
// sign bit: math.Abs.
#define ABSMASK(Y) \
	VPCMPEQQ Y, Y, Y; \
	VPSRLQ   $1, Y, Y

// func avxScale(x *float64, n int, a float64)
// x ← x·a.
TEXT ·avxScale(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	SHLQ         $3, CX
	XORQ         AX, AX
	VBROADCASTSD a+16(FP), Y7

scLoop:
	VMULPD  (SI)(AX*1), Y7, Y1
	VMOVUPD Y1, (SI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     scLoop
	VZEROUPPER
	RET

// func avxNorm1Lanes(acc *[4]float64, x *float64, n int)
// acc[ℓ] += Σ |x| over lane ℓ; the lanes stay uncombined.
TEXT ·avxNorm1Lanes(SB), NOSPLIT, $0-24
	MOVQ    acc+0(FP), DX
	MOVQ    x+8(FP), SI
	MOVQ    n+16(FP), CX
	SHLQ    $3, CX
	XORQ    AX, AX
	VMOVUPD (DX), Y0
	ABSMASK(Y7)

n1Loop:
	VANDPD  (SI)(AX*1), Y7, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     n1Loop
	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

// func avxMaxAbs(x *float64, n int) float64
// max |x| with NaN skipped: VMAXPD returns its second source when either
// source is NaN, and with |x| first and the lane maximum second that is
// NormInf's "if a > s { s = a }". The lanes start at +0 and never hold a
// NaN or −0, so the horizontal combine is exact in any order.
TEXT ·avxMaxAbs(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), SI
	MOVQ   n+8(FP), CX
	SHLQ   $3, CX
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0
	ABSMASK(Y7)

maLoop:
	VANDPD (SI)(AX*1), Y7, Y1
	VMAXPD Y0, Y1, Y0
	ADDQ   $32, AX
	CMPQ   AX, CX
	JNE    maLoop
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VMAXSD       X1, X0, X0
	VMOVSD       X0, ret+16(FP)
	VZEROUPPER
	RET

// func avxConcentrationScan(lanes *[3][4]float64, x *float64, n int)
// Per lane: max |x| (NaN skipped) in Y0, min x (NaN skipped: VMINPD with x
// first, the lane minimum second) in Y1, Σ max(x, 0) in Y2, where the clamp
// is VMAXPD with 0 first and x second, "0 > x ? 0 : x", which passes NaN
// and −0 through as the Go body's "if v < 0 { v = 0 }" does. The lanes are
// loaded from and stored back to lanes uncombined.
TEXT ·avxConcentrationScan(SB), NOSPLIT, $0-24
	MOVQ    lanes+0(FP), DX
	MOVQ    x+8(FP), SI
	MOVQ    n+16(FP), CX
	SHLQ    $3, CX
	XORQ    AX, AX
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VXORPD  Y6, Y6, Y6
	ABSMASK(Y7)

csLoop:
	VMOVUPD (SI)(AX*1), Y3
	VANDPD  Y3, Y7, Y4
	VMAXPD  Y0, Y4, Y0
	VMINPD  Y1, Y3, Y1
	VMAXPD  Y3, Y6, Y5
	VADDPD  Y5, Y2, Y2
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     csLoop
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VZEROUPPER
	RET

// func avxClampScale(x *float64, n int, a float64)
// x ← max(x, 0)·a with the clamp of avxConcentrationScan.
TEXT ·avxClampScale(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	SHLQ         $3, CX
	XORQ         AX, AX
	VBROADCASTSD a+16(FP), Y7
	VXORPD       Y6, Y6, Y6

clLoop:
	VMAXPD  (SI)(AX*1), Y6, Y1
	VMULPD  Y7, Y1, Y1
	VMOVUPD Y1, (SI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     clLoop
	VZEROUPPER
	RET

// func avxFitErrors(x, h1, h2, h3 *float64, n int, w *[5]float64) (e1, e2, e3 float64)
// d1 = x − h1, d2 = x − (w0·h1 + w1·h2), d3 = x − ((w2·h1 + w3·h2) + w4·h3);
// Σ d1² in Y0, Σ d2² in Y1, Σ d3² in Y2.
TEXT ·avxFitErrors(SB), NOSPLIT, $0-72
	MOVQ         x+0(FP), SI
	MOVQ         h1+8(FP), DI
	MOVQ         h2+16(FP), R8
	MOVQ         h3+24(FP), R9
	MOVQ         n+32(FP), CX
	MOVQ         w+40(FP), DX
	SHLQ         $3, CX
	XORQ         AX, AX
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VBROADCASTSD (DX), Y11
	VBROADCASTSD 8(DX), Y12
	VBROADCASTSD 16(DX), Y13
	VBROADCASTSD 24(DX), Y14
	VBROADCASTSD 32(DX), Y15

feLoop:
	VMOVUPD (SI)(AX*1), Y3
	VMOVUPD (DI)(AX*1), Y4
	VMOVUPD (R8)(AX*1), Y5
	VSUBPD  Y4, Y3, Y6
	VMULPD  Y6, Y6, Y6
	VADDPD  Y6, Y0, Y0
	VMULPD  Y4, Y11, Y6
	VMULPD  Y5, Y12, Y7
	VADDPD  Y7, Y6, Y6
	VSUBPD  Y6, Y3, Y6
	VMULPD  Y6, Y6, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  Y4, Y13, Y6
	VMULPD  Y5, Y14, Y7
	VADDPD  Y7, Y6, Y6
	VMULPD  (R9)(AX*1), Y15, Y7
	VADDPD  Y7, Y6, Y6
	VSUBPD  Y6, Y3, Y6
	VMULPD  Y6, Y6, Y6
	VADDPD  Y6, Y2, Y2
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     feLoop
	HSUM(Y0, X0, X3, X4)
	HSUM(Y1, X1, X3, X4)
	HSUM(Y2, X2, X3, X4)
	VMOVSD X0, e1+48(FP)
	VMOVSD X1, e2+56(FP)
	VMOVSD X2, e3+64(FP)
	VZEROUPPER
	RET

// func avxExtrapolate(x, h1, h2, h3 *float64, n, k int, l *[4]float64)
// t = l0·x + l1·h1 (k = 2), + l2·h2 (k ≥ 3), + l3·h3 (k = 4), summed left
// to right; h3 ← x, x ← t. Each iteration loads x and h3 before it stores
// either, so the k = 4 loop reads h3 before overwriting it.
TEXT ·avxExtrapolate(SB), NOSPLIT, $0-56
	MOVQ         x+0(FP), SI
	MOVQ         h1+8(FP), DI
	MOVQ         h2+16(FP), R8
	MOVQ         h3+24(FP), R9
	MOVQ         n+32(FP), CX
	MOVQ         k+40(FP), BX
	MOVQ         l+48(FP), DX
	SHLQ         $3, CX
	XORQ         AX, AX
	VBROADCASTSD (DX), Y12
	VBROADCASTSD 8(DX), Y13
	VBROADCASTSD 16(DX), Y14
	VBROADCASTSD 24(DX), Y15
	CMPQ         BX, $3
	JEQ          ex3Loop
	JGT          ex4Loop

ex2Loop:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  Y1, Y12, Y2
	VMULPD  (DI)(AX*1), Y13, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y2, (SI)(AX*1)
	VMOVUPD Y1, (R9)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     ex2Loop
	VZEROUPPER
	RET

ex3Loop:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  Y1, Y12, Y2
	VMULPD  (DI)(AX*1), Y13, Y3
	VADDPD  Y3, Y2, Y2
	VMULPD  (R8)(AX*1), Y14, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y2, (SI)(AX*1)
	VMOVUPD Y1, (R9)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     ex3Loop
	VZEROUPPER
	RET

ex4Loop:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  Y1, Y12, Y2
	VMULPD  (DI)(AX*1), Y13, Y3
	VADDPD  Y3, Y2, Y2
	VMULPD  (R8)(AX*1), Y14, Y3
	VADDPD  Y3, Y2, Y2
	VMULPD  (R9)(AX*1), Y15, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y2, (SI)(AX*1)
	VMOVUPD Y1, (R9)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JNE     ex4Loop
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL   CX, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
