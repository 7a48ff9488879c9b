//go:build amd64 && !noasm

#include "textflag.h"

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
//
// Reads XCR0; only called after CPUID reports OSXSAVE, so the instruction
// is guaranteed to exist.
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dotPanel2x4(a0, a1, panel *float64, k int, out *[8]float64)
//
// Computes eight dot products at once — two sample rows (a0, a1) against
// four weight rows interleaved into panel (panel[4·kk+c] is weight row c at
// position kk) — using SSE2 only, which is part of the amd64 baseline and
// needs no runtime feature detection.
//
// Numerical contract: each XMM lane owns exactly one (row, column) output
// and performs MULPD-then-ADDPD per kk in ascending order — the same
// multiply-then-accumulate sequence per element as the scalar kernel and
// the per-sample MulVec loop, so results are bit-identical to both.
//
// out layout: [r0c0 r0c1 r0c2 r0c3 r1c0 r1c1 r1c2 r1c3].
TEXT ·dotPanel2x4(SB), NOSPLIT, $0-40
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DI
	MOVQ panel+16(FP), BX
	MOVQ k+24(FP), CX
	MOVQ out+32(FP), DX

	// Accumulators: X0=[r0c0 r0c1] X1=[r0c2 r0c3] X2=[r1c0 r1c1] X3=[r1c2 r1c3].
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3

	TESTQ CX, CX
	JLE   done

loop:
	// Panel columns for this kk (unaligned loads: the panel lives on the
	// caller's stack).
	MOVUPD (BX), X8     // [c0 c1]
	MOVUPD 16(BX), X9   // [c2 c3]

	// Row 0: broadcast a0[kk] and fuse into both column pairs.
	MOVSD    (SI), X4
	UNPCKLPD X4, X4
	MOVAPS   X4, X5
	MULPD    X8, X4
	ADDPD    X4, X0
	MULPD    X9, X5
	ADDPD    X5, X1

	// Row 1: broadcast a1[kk].
	MOVSD    (DI), X6
	UNPCKLPD X6, X6
	MOVAPS   X6, X7
	MULPD    X8, X6
	ADDPD    X6, X2
	MULPD    X9, X7
	ADDPD    X7, X3

	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $32, BX
	DECQ CX
	JNZ  loop

done:
	MOVUPD X0, (DX)
	MOVUPD X1, 16(DX)
	MOVUPD X2, 32(DX)
	MOVUPD X3, 48(DX)
	RET

// func dotPanel2x8(a0, a1, panel *float64, k int, out *[16]float64)
//
// AVX2 widening of dotPanel2x4: two sample rows against eight weight rows
// interleaved into panel (panel[8·kk+c] is weight row c at position kk).
//
// Numerical contract: each YMM lane owns exactly one (row, column) output
// and performs VMULPD-then-VADDPD per kk in ascending order — deliberately
// NOT VFMADD, because fusing would round once where the scalar reference
// rounds twice and break the repository's bit-exactness contract.
//
// out layout: [r0c0..r0c7 r1c0..r1c7].
TEXT ·dotPanel2x8(SB), NOSPLIT, $0-40
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DI
	MOVQ panel+16(FP), BX
	MOVQ k+24(FP), CX
	MOVQ out+32(FP), DX

	// Accumulators: Y0=r0c0-3 Y1=r0c4-7 Y2=r1c0-3 Y3=r1c4-7.
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	TESTQ CX, CX
	JLE   done2x8

loop2x8:
	VMOVUPD      (BX), Y6      // panel c0-3
	VMOVUPD      32(BX), Y7    // panel c4-7
	VBROADCASTSD (SI), Y4      // a0[kk]
	VBROADCASTSD (DI), Y5      // a1[kk]

	VMULPD Y6, Y4, Y8
	VADDPD Y8, Y0, Y0
	VMULPD Y7, Y4, Y9
	VADDPD Y9, Y1, Y1
	VMULPD Y6, Y5, Y10
	VADDPD Y10, Y2, Y2
	VMULPD Y7, Y5, Y11
	VADDPD Y11, Y3, Y3

	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $64, BX
	DECQ CX
	JNZ  loop2x8

done2x8:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET

// func dotPanel1x8(a, panel *float64, k int, out *[8]float64)
//
// Single-row AVX2 panel reduction — the batch-of-1 (per-sample serving)
// kernel and the odd-row cleanup of dotPanel2x8. Same lane/order contract.
TEXT ·dotPanel1x8(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ panel+8(FP), BX
	MOVQ k+16(FP), CX
	MOVQ out+24(FP), DX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

	TESTQ CX, CX
	JLE   done1x8

loop1x8:
	VMOVUPD      (BX), Y6
	VMOVUPD      32(BX), Y7
	VBROADCASTSD (SI), Y4

	VMULPD Y6, Y4, Y8
	VADDPD Y8, Y0, Y0
	VMULPD Y7, Y4, Y9
	VADDPD Y9, Y1, Y1

	ADDQ $8, SI
	ADDQ $64, BX
	DECQ CX
	JNZ  loop1x8

done1x8:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VZEROUPPER
	RET

// func dotPanel1x32(a, panel *float64, k int, out *[32]float64)
//
// Single-row AVX2 reduction against four consecutive 8-wide panels (BX, R9,
// R10, R11, each 8·k values apart). At batch 1 dotPanel1x8's two accumulator
// chains wait on VADDPD latency; eight independent chains keep the adders
// busy. Same lane/order contract: every lane is a VMULPD-then-VADDPD chain
// over ascending kk.
//
// out layout: [panel0 c0-7, panel1 c0-7, panel2 c0-7, panel3 c0-7].
TEXT ·dotPanel1x32(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ panel+8(FP), BX
	MOVQ k+16(FP), CX
	MOVQ out+24(FP), DX

	MOVQ CX, R8
	SHLQ $6, R8            // panel stride in bytes: 8 values · 8 bytes · k
	LEAQ (BX)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	TESTQ CX, CX
	JLE   done1x32

loop1x32:
	VBROADCASTSD (SI), Y8

	VMULPD (BX), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(BX), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD (R9), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 32(R9), Y8, Y12
	VADDPD Y12, Y3, Y3
	VMULPD (R10), Y8, Y13
	VADDPD Y13, Y4, Y4
	VMULPD 32(R10), Y8, Y14
	VADDPD Y14, Y5, Y5
	VMULPD (R11), Y8, Y15
	VADDPD Y15, Y6, Y6
	VMULPD 32(R11), Y8, Y9
	VADDPD Y9, Y7, Y7

	ADDQ $8, SI
	ADDQ $64, BX
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	DECQ CX
	JNZ  loop1x32

done1x32:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

// Constants of the exp and cell kernels, four copies each so every one is a
// 256-bit memory operand: the literals of the standard library's amd64
// math.Exp (src/math/exp_amd64.s), the lane guards and masks, and the
// thresholds and rational coefficients of math.Tanh (src/math/tanh.go).
#define BCAST4(off, v) \
	DATA vconst<>+off(SB)/8, v; \
	DATA vconst<>+off+8(SB)/8, v; \
	DATA vconst<>+off+16(SB)/8, v; \
	DATA vconst<>+off+24(SB)/8, v

#define C_LOG2E 0
#define C_LN2U 32
#define C_LN2L 64
#define C_SIXTEENTH 96
#define C_F8 128
#define C_F7 160
#define C_F6 192
#define C_F5 224
#define C_F4 256
#define C_F3 288
#define C_HALF 320
#define C_ONE 352
#define C_TWO 384
#define C_BIAS 416
#define C_GUARD 448
#define C_ABS 480
#define C_SIGN 512
#define C_TANH_SAT 544
#define C_TANH_MID 576
#define C_TANH_P0 608
#define C_TANH_P1 640
#define C_TANH_P2 672
#define C_TANH_Q0 704
#define C_TANH_Q1 736
#define C_TANH_Q2 768
#define C_CGUARD 800

BCAST4(C_LOG2E, $1.4426950408889634073599246810018920)
BCAST4(C_LN2U, $0.69314718055966295651160180568695068359375)
BCAST4(C_LN2L, $0.28235290563031577122588448175013436025525412068e-12)
BCAST4(C_SIXTEENTH, $0.0625)
BCAST4(C_F8, $2.4801587301587301587e-5)
BCAST4(C_F7, $1.9841269841269841270e-4)
BCAST4(C_F6, $1.3888888888888888889e-3)
BCAST4(C_F5, $8.3333333333333333333e-3)
BCAST4(C_F4, $4.1666666666666666667e-2)
BCAST4(C_F3, $1.6666666666666666667e-1)
BCAST4(C_HALF, $0.5)
BCAST4(C_ONE, $1.0)
BCAST4(C_TWO, $2.0)
BCAST4(C_BIAS, $0x3FF)
BCAST4(C_GUARD, $708.0)
BCAST4(C_ABS, $0x7FFFFFFFFFFFFFFF)
BCAST4(C_SIGN, $0x8000000000000000)
BCAST4(C_TANH_SAT, $44.014845965556527147994)
BCAST4(C_TANH_MID, $0.625)
BCAST4(C_TANH_P0, $-9.64399179425052238628e-1)
BCAST4(C_TANH_P1, $-9.92877231001918586564e1)
BCAST4(C_TANH_P2, $-1.61468768441708447952e3)
BCAST4(C_TANH_Q0, $1.12811678491632931402e2)
BCAST4(C_TANH_Q1, $2.23548839060100448583e3)
BCAST4(C_TANH_Q2, $4.84406305325125486048e3)
BCAST4(C_CGUARD, $353.0)
GLOBL vconst<>(SB), RODATA|NOPTR, $832

// EXP4 sets each lane of x to math.Exp of itself, repeating instruction for
// instruction the avxfma branch of math.Exp's amd64 assembly — the same
// constants, the same fused VFNMADD/VFMADD steps where it fuses and plain
// VMULPD/VADDPD where it does not — so each lane rounds exactly as math.Exp
// does on a CPU with FMA. Every lane must be finite with |x| ≤ 708: there
// that branch never reaches its overflow or subnormal exits
// (|round(x·log2 e)| ≤ 1022), so they need no vector form. t is scratch, tx
// its low half, and n (an XMM register or 16 bytes of memory) keeps the
// integer exponent between the first stage and the last.
//
// The sequence comes in four stages, so that a caller can run several
// exponentials' stages side by side; across a stage boundary only x and n
// are live.
//
//	EXPA: n = round(x·log2 e) under the MXCSR rounding mode, as CVTSD2SL
//	      does; r = (x − n·ln2u − n·ln2l) / 16, both subtractions fused
//	EXPB: p = ((((((1/8!·r + 1/7!)·r + 1/6!)·r + 1/5!)·r + 1/4!)·r + 1/3!)·r
//	      + 1/2)·r + 1, each step fused; y = r·p
//	EXPC: y squared back up four times: y = y·(y+2) thrice, then
//	      y = (y+2)·y + 1 fused
//	EXPD: y·2ⁿ, where (n + 1023) << 52 is the bit pattern of 2ⁿ
#define EXPA(x, t, tx, n) \
	VMULPD       vconst<>+C_LOG2E(SB), x, t; \
	VCVTPD2DQY   t, tx; \
	VMOVDQU      tx, n; \
	VCVTDQ2PD    tx, t; \
	VFNMADD231PD vconst<>+C_LN2U(SB), t, x; \
	VFNMADD231PD vconst<>+C_LN2L(SB), t, x; \
	VMULPD       vconst<>+C_SIXTEENTH(SB), x, x

#define EXPB(x, t) \
	VMOVUPD     vconst<>+C_F8(SB), t; \
	VFMADD213PD vconst<>+C_F7(SB), x, t; \
	VFMADD213PD vconst<>+C_F6(SB), x, t; \
	VFMADD213PD vconst<>+C_F5(SB), x, t; \
	VFMADD213PD vconst<>+C_F4(SB), x, t; \
	VFMADD213PD vconst<>+C_F3(SB), x, t; \
	VFMADD213PD vconst<>+C_HALF(SB), x, t; \
	VFMADD213PD vconst<>+C_ONE(SB), x, t; \
	VMULPD      t, x, x

#define EXPC(x, t) \
	VADDPD      vconst<>+C_TWO(SB), x, t; \
	VMULPD      t, x, x; \
	VADDPD      vconst<>+C_TWO(SB), x, t; \
	VMULPD      t, x, x; \
	VADDPD      vconst<>+C_TWO(SB), x, t; \
	VMULPD      t, x, x; \
	VADDPD      vconst<>+C_TWO(SB), x, t; \
	VFMADD213PD vconst<>+C_ONE(SB), t, x

#define EXPD(x, t, n) \
	VPMOVSXDQ n, t; \
	VPADDQ    vconst<>+C_BIAS(SB), t, t; \
	VPSLLQ    $52, t, t; \
	VMULPD    t, x, x

#define EXP4(x, t, tx, n) \
	EXPA(x, t, tx, n); \
	EXPB(x, t); \
	EXPC(x, t); \
	EXPD(x, t, n)

// TANHQ and TANH4 compute math.Tanh(x) lane by lane as tanhFromExp
// (internal/rnn) does: its three branches in every lane, each in math.Tanh's
// exact operation order, then blended —
//
//	|x| > 44.0148…:        ±1 with the sign of x
//	0.625 ≤ |x| ≤ 44.01…:  ±(1 − 2/(s+1)),  s = exp(2|x|)
//	|x| < 0.625:           x + x·x²·((P0·x² + P1)·x² + P2) / (((x² + Q0)·x² + Q1)·x² + Q2)
//	x == 0:                x, so −0 keeps its sign
//
// TANHQ sets r and m to the rational branch's numerator and denominator (a
// is scratch). It needs no exponential, so it goes ahead of the EXP4 that
// computes s and runs alongside it.
#define TANHQ(x, r, m, a) \
	VMULPD x, x, a; \
	VMULPD vconst<>+C_TANH_P0(SB), a, r; \
	VADDPD vconst<>+C_TANH_P1(SB), r, r; \
	VMULPD a, r, r; \
	VADDPD vconst<>+C_TANH_P2(SB), r, r; \
	VMULPD a, x, m; \
	VMULPD r, m, r; \
	VADDPD vconst<>+C_TANH_Q0(SB), a, m; \
	VMULPD a, m, m; \
	VADDPD vconst<>+C_TANH_Q1(SB), m, m; \
	VMULPD a, m, m; \
	VADDPD vconst<>+C_TANH_Q2(SB), m, m

// TANH4 finishes: given TANHQ's r and m and s = exp(2|x|), it sets r to
// tanh(x), overwriting s and m; a and q are scratch, and Y15 must hold 1.
// The middle and rational branches share one division: the numerator and
// denominator are blended before it.
#define TANH4(x, s, r, m, a, q) \
	VADDPD    Y15, s, s; \
	VANDPD    vconst<>+C_ABS(SB), x, a; \
	VCMPPD    $0x1D, vconst<>+C_TANH_MID(SB), a, q; \
	VBLENDVPD q, s, m, m; \
	VBLENDVPD q, vconst<>+C_TWO(SB), r, r; \
	VDIVPD    m, r, r; \
	VSUBPD    r, Y15, s; \
	VANDPD    vconst<>+C_SIGN(SB), x, m; \
	VXORPD    m, s, s; \
	VADDPD    r, x, r; \
	VBLENDVPD q, s, r, r; \
	VCMPPD    $0x1E, vconst<>+C_TANH_SAT(SB), a, q; \
	VORPD     Y15, m, s; \
	VBLENDVPD q, s, r, r; \
	VXORPD    s, s, s; \
	VCMPPD    $0, s, x, q; \
	VBLENDVPD q, x, r, r

// func expAsm(dst, src *float64, n int) int
//
// dst[i] = math.Exp(src[i]) for i < n, n a multiple of 4, four lanes per
// group through EXP4. The first group holding a lane outside ±708, or a NaN
// or ±Inf lane, stops the loop, and the return value (elements written)
// tells the caller where.
TEXT ·expAsm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

	VMOVUPD vconst<>+C_ABS(SB), Y4
	VMOVUPD vconst<>+C_GUARD(SB), Y5

	CMPQ AX, CX
	JGE  expDone

expLoop:
	VMOVUPD (SI)(AX*8), Y0

	// Guard: every lane ordered and |x| ≤ 708 (predicate 2 = LE_OS is false
	// for NaN).
	VANDPD    Y4, Y0, Y1
	VCMPPD    $2, Y5, Y1, Y1
	VMOVMSKPD Y1, DX
	CMPQ      DX, $15
	JNE       expDone

	EXP4(Y0, Y1, X1, X2)

	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     expLoop

expDone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func lstmCellAsm(z, zh, b, c, h, tc *float64, hid, n int) int
//
// One LSTM step for units [0, n) of one sequence, n a multiple of 4. z, zh
// and b point at unit 0 of the first of four gate blocks (i, f, g, o) hid
// values apart; c, h and tc at unit 0 of the states. Per lane, in the scalar
// cell's order (LSTM.cellUnits in internal/rnn):
//
//	v = z + (zh + b)                       for each gate
//	i, f, o = 1/(1 + exp(−v)),  g = tanh(v)
//	c = f·c + i·g                          unfused
//	tc = tanh(c),  h = o·tc
//
// with exp through EXP4's stages, the division by VDIVPD (correctly
// rounded) and tanh through TANHQ and TANH4, so every stored value is the
// scalar cell's bit for bit.
//
// The first pass takes two groups of four units at a time — A and B, or the
// last group twice over when one is left — from the inputs to the new c, all
// eight gate exponentials side by side, and stores the gates and c. Before
// anything of them is stored, every lane must pass the guard: each gate's
// exp argument (−v for i, f and o, 2|v| for g) finite and within ±708, and
// the previous c finite with |c| ≤ 353, which bounds the new c by 354 since
// f, i and |g| are at most 1, so exp(2|c|) is in range too. A pair that
// fails ends the pass; the return value (units finished) tells the caller
// where. The second pass finishes tc and h four units at a time for the
// groups the first stored.
TEXT ·lstmCellAsm(SB), NOSPLIT, $128-72
	MOVQ z+0(FP), DI
	MOVQ zh+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ c+24(FP), R8
	MOVQ h+32(FP), R9
	MOVQ tc+40(FP), R10
	MOVQ hid+48(FP), R11
	MOVQ n+56(FP), CX
	XORQ AX, AX

	SHLQ $3, R11            // gate block stride in bytes
	LEAQ (R11)(R11*2), R12  // three blocks

	VMOVUPD vconst<>+C_ONE(SB), Y15

cellPairs:
	// R13 is group B's offset from group A: the next group, or none.
	MOVQ CX, DX
	SUBQ AX, DX
	JLE  cellStates
	MOVQ $32, R13
	CMPQ DX, $8
	JGE  cellSums
	XORQ R13, R13

cellSums:
	// Gate sums z + (zh + b): Y0 = i, Y1 = f, Y8 = g, Y2 = o of group A, and
	// Y4, Y5, Y9, Y6 of group B.
	VMOVUPD (SI), Y0
	VADDPD  (BX), Y0, Y0
	VADDPD  (DI), Y0, Y0
	VMOVUPD (SI)(R11*1), Y1
	VADDPD  (BX)(R11*1), Y1, Y1
	VADDPD  (DI)(R11*1), Y1, Y1
	VMOVUPD (SI)(R11*2), Y8
	VADDPD  (BX)(R11*2), Y8, Y8
	VADDPD  (DI)(R11*2), Y8, Y8
	VMOVUPD (SI)(R12*1), Y2
	VADDPD  (BX)(R12*1), Y2, Y2
	VADDPD  (DI)(R12*1), Y2, Y2
	LEAQ    (SI)(R13*1), DX
	VMOVUPD (DX), Y4
	VMOVUPD (DX)(R11*1), Y5
	VMOVUPD (DX)(R11*2), Y9
	VMOVUPD (DX)(R12*1), Y6
	LEAQ    (BX)(R13*1), DX
	VADDPD  (DX), Y4, Y4
	VADDPD  (DX)(R11*1), Y5, Y5
	VADDPD  (DX)(R11*2), Y9, Y9
	VADDPD  (DX)(R12*1), Y6, Y6
	LEAQ    (DI)(R13*1), DX
	VADDPD  (DX), Y4, Y4
	VADDPD  (DX)(R11*1), Y5, Y5
	VADDPD  (DX)(R11*2), Y9, Y9
	VADDPD  (DX)(R12*1), Y6, Y6

	// The guard, accumulated in Y10 (LE_OS is false for NaN). g's exp
	// arguments 2|v| go to Y3 and Y7.
	VANDPD    vconst<>+C_ABS(SB), Y0, Y10
	VCMPPD    $2, vconst<>+C_GUARD(SB), Y10, Y10
	VANDPD    vconst<>+C_ABS(SB), Y1, Y11
	VCMPPD    $2, vconst<>+C_GUARD(SB), Y11, Y11
	VANDPD    Y11, Y10, Y10
	VANDPD    vconst<>+C_ABS(SB), Y2, Y11
	VCMPPD    $2, vconst<>+C_GUARD(SB), Y11, Y11
	VANDPD    Y11, Y10, Y10
	VANDPD    vconst<>+C_ABS(SB), Y4, Y11
	VCMPPD    $2, vconst<>+C_GUARD(SB), Y11, Y11
	VANDPD    Y11, Y10, Y10
	VANDPD    vconst<>+C_ABS(SB), Y5, Y11
	VCMPPD    $2, vconst<>+C_GUARD(SB), Y11, Y11
	VANDPD    Y11, Y10, Y10
	VANDPD    vconst<>+C_ABS(SB), Y6, Y11
	VCMPPD    $2, vconst<>+C_GUARD(SB), Y11, Y11
	VANDPD    Y11, Y10, Y10
	VANDPD    vconst<>+C_ABS(SB), Y8, Y3
	VADDPD    Y3, Y3, Y3
	VCMPPD    $2, vconst<>+C_GUARD(SB), Y3, Y11
	VANDPD    Y11, Y10, Y10
	VANDPD    vconst<>+C_ABS(SB), Y9, Y7
	VADDPD    Y7, Y7, Y7
	VCMPPD    $2, vconst<>+C_GUARD(SB), Y7, Y11
	VANDPD    Y11, Y10, Y10
	VMOVUPD   (R8), Y11
	VANDPD    vconst<>+C_ABS(SB), Y11, Y11
	VCMPPD    $2, vconst<>+C_CGUARD(SB), Y11, Y11
	VANDPD    Y11, Y10, Y10
	VMOVUPD   (R8)(R13*1), Y11
	VANDPD    vconst<>+C_ABS(SB), Y11, Y11
	VCMPPD    $2, vconst<>+C_CGUARD(SB), Y11, Y11
	VANDPD    Y11, Y10, Y10
	VMOVMSKPD Y10, DX
	CMPQ      DX, $15
	JNE       cellStates

	// g's rational branches (Y10, Y11 and Y12, Y13), then the eight
	// exponentials — exp(−v) for i, f and o, exp(2|v|) for g — stage by
	// stage, their exponents in the frame.
	TANHQ(Y8, Y10, Y11, Y14)
	TANHQ(Y9, Y12, Y13, Y14)
	VXORPD vconst<>+C_SIGN(SB), Y0, Y0
	VXORPD vconst<>+C_SIGN(SB), Y1, Y1
	VXORPD vconst<>+C_SIGN(SB), Y2, Y2
	VXORPD vconst<>+C_SIGN(SB), Y4, Y4
	VXORPD vconst<>+C_SIGN(SB), Y5, Y5
	VXORPD vconst<>+C_SIGN(SB), Y6, Y6
	EXPA(Y0, Y14, X14, 0(SP))
	EXPA(Y1, Y14, X14, 16(SP))
	EXPA(Y2, Y14, X14, 32(SP))
	EXPA(Y3, Y14, X14, 48(SP))
	EXPA(Y4, Y14, X14, 64(SP))
	EXPA(Y5, Y14, X14, 80(SP))
	EXPA(Y6, Y14, X14, 96(SP))
	EXPA(Y7, Y14, X14, 112(SP))
	EXPB(Y0, Y14)
	EXPB(Y1, Y14)
	EXPB(Y2, Y14)
	EXPB(Y3, Y14)
	EXPB(Y4, Y14)
	EXPB(Y5, Y14)
	EXPB(Y6, Y14)
	EXPB(Y7, Y14)
	EXPC(Y0, Y14)
	EXPC(Y1, Y14)
	EXPC(Y2, Y14)
	EXPC(Y3, Y14)
	EXPC(Y4, Y14)
	EXPC(Y5, Y14)
	EXPC(Y6, Y14)
	EXPC(Y7, Y14)
	EXPD(Y0, Y14, 0(SP))
	EXPD(Y1, Y14, 16(SP))
	EXPD(Y2, Y14, 32(SP))
	EXPD(Y3, Y14, 48(SP))
	EXPD(Y4, Y14, 64(SP))
	EXPD(Y5, Y14, 80(SP))
	EXPD(Y6, Y14, 96(SP))
	EXPD(Y7, Y14, 112(SP))

	// σ = 1/(1 + e) for i, f and o; o goes straight to z.
	VADDPD  Y15, Y0, Y0
	VDIVPD  Y0, Y15, Y0
	VADDPD  Y15, Y1, Y1
	VDIVPD  Y1, Y15, Y1
	VADDPD  Y15, Y2, Y2
	VDIVPD  Y2, Y15, Y2
	VADDPD  Y15, Y4, Y4
	VDIVPD  Y4, Y15, Y4
	VADDPD  Y15, Y5, Y5
	VDIVPD  Y5, Y15, Y5
	VADDPD  Y15, Y6, Y6
	VDIVPD  Y6, Y15, Y6
	LEAQ    (DI)(R13*1), DX
	VMOVUPD Y2, (DI)(R12*1)
	VMOVUPD Y6, (DX)(R12*1)

	// g = tanh(v) into Y10 and Y12.
	TANH4(Y8, Y3, Y10, Y11, Y14, Y2)
	TANH4(Y9, Y7, Y12, Y13, Y14, Y6)

	// c = f·c + i·g into Y3 and Y7, both read before either is stored.
	VMULPD (R8), Y1, Y3
	VMULPD Y10, Y0, Y2
	VADDPD Y2, Y3, Y3
	VMULPD (R8)(R13*1), Y5, Y7
	VMULPD Y12, Y4, Y6
	VADDPD Y6, Y7, Y7

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R11*1)
	VMOVUPD Y10, (DI)(R11*2)
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, (DX)(R11*1)
	VMOVUPD Y12, (DX)(R11*2)
	VMOVUPD Y3, (R8)
	VMOVUPD Y7, (R8)(R13*1)

	// Advance past both groups: 32 + R13 bytes, 4 + R13/8 units.
	LEAQ 32(R13), DX
	ADDQ DX, DI
	ADDQ DX, SI
	ADDQ DX, BX
	ADDQ DX, R8
	SHRQ $3, DX
	ADDQ DX, AX
	JMP  cellPairs

	// Second pass, over the groups the first stored: tc = tanh(c) and
	// h = o·tc.
cellStates:
	MOVQ  AX, ret+64(FP)
	MOVQ  AX, CX
	TESTQ CX, CX
	JZ    cellDone
	MOVQ  z+0(FP), DI
	MOVQ  c+24(FP), R8

cellStatesLoop:
	VMOVUPD (R8), Y5
	VANDPD  vconst<>+C_ABS(SB), Y5, Y2
	VADDPD  Y2, Y2, Y2
	TANHQ(Y5, Y10, Y8, Y7)
	EXP4(Y2, Y6, X6, X7)
	TANH4(Y5, Y2, Y10, Y8, Y7, Y9)
	VMULPD  (DI)(R12*1), Y10, Y11
	VMOVUPD Y10, (R10)
	VMOVUPD Y11, (R9)

	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	SUBQ $4, CX
	JNZ  cellStatesLoop

cellDone:
	VZEROUPPER
	RET

// func axpyAsm(y, x *float64, n int, s float64)
//
// y[i] += s·x[i] for i < n; n must be a multiple of 4. Each element is an
// independent multiply-then-add with correctly rounded SIMD arithmetic, so
// the result is bit-identical to the scalar loop.
TEXT ·axpyAsm(SB), NOSPLIT, $0-32
	MOVQ         y+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD s+24(FP), Y0

	MOVQ CX, BX
	SHRQ $3, BX
	JZ   axpyQuad

axpyLoop8:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    BX
	JNZ     axpyLoop8

axpyQuad:
	TESTQ $4, CX
	JZ    axpyDone
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)

axpyDone:
	VZEROUPPER
	RET

// func gemm4Asm(dst *float64, ldd int, a *float64, sa, ra int, b *float64, ldb, k, n int)
//
// Four dst rows, n columns: dst[i·ldd + j] += a[s·sa + i·ra] · b[s·ldb + j]
// for i < 4, j < n and s ascending over k ≥ 1 steps, the term skipped where
// the a value is ±0 — exactly the axpy loop it replaces, which adds a·b[s]
// to a dst row for every nonzero a, in ascending s. Strides are in
// elements, so one routine serves aᵀ·b (sa = a's width, ra = 1) and a·b
// (sa = 1, ra = a's width).
//
// The destination is held as a tile of 4 rows × 8 columns in Y0–Y7 while
// the k steps run: per step, one 8-wide load of b and one broadcast of a
// per row. Columns left over from the 8-wide tiles go through a 4-wide tile
// (Y0–Y3) whose loads and stores are masked to the columns that remain
// (VMASKMOVPD neither reads nor writes the other lanes).
//
// Numerical contract: every lane is its own dst element and takes each
// term as VMULPD then VADDPD, with the operands in axpyAsm's order, so each
// element sees the rounding sequence of the axpy loop bit for bit. A step
// whose four a values are all nonzero adds every term, which is the loop's
// own arithmetic. A step with a ±0 among them (found by adding each value's
// bits to themselves, which shifts out the sign and leaves zero only for
// ±0) takes the blended form instead:
// VCMPPD (NEQ_UQ: true for NaN, false for ±0) marks the rows whose a value
// is not zero and VBLENDVPD keeps the old accumulator in the others. That
// keeps the skip's meaning where adding 0·b would differ from it — b
// holding ±Inf or NaN, or an accumulator of −0 — while the steps that need
// no blend, nearly all of them in training, do not pay for one.
//
// Registers: DI dst tile, SI a, BX b tile, DX columns left, R8 ldd, R9 sa,
// R10 ra and R14 3·ra, R11 ldb (all strides in bytes), R13 and AX the a and
// b cursors, R12 the steps left, CX scratch; Y8/Y9 b, Y10 a, Y11/Y12
// products, Y13 the blend mask, Y14 the column mask, Y15 zero.

// GEMM_ZERO jumps to the blended form of the step when one of its four a
// values is ±0.
#define GEMM_ZERO(blend) \
	MOVQ (R13), CX; \
	ADDQ CX, CX; \
	JZ   blend; \
	MOVQ (R13)(R10*1), CX; \
	ADDQ CX, CX; \
	JZ   blend; \
	MOVQ (R13)(R10*2), CX; \
	ADDQ CX, CX; \
	JZ   blend; \
	MOVQ (R13)(R14*1), CX; \
	ADDQ CX, CX; \
	JZ   blend

#define GEMM_ROW8(aop, acc0, acc1) \
	VBROADCASTSD aop, Y10; \
	VMULPD       Y10, Y8, Y11; \
	VADDPD       acc0, Y11, acc0; \
	VMULPD       Y10, Y9, Y12; \
	VADDPD       acc1, Y12, acc1

#define GEMM_ROW8B(aop, acc0, acc1) \
	VBROADCASTSD aop, Y10; \
	VCMPPD       $4, Y15, Y10, Y13; \
	VMULPD       Y10, Y8, Y11; \
	VADDPD       acc0, Y11, Y11; \
	VBLENDVPD    Y13, Y11, acc0, acc0; \
	VMULPD       Y10, Y9, Y12; \
	VADDPD       acc1, Y12, Y12; \
	VBLENDVPD    Y13, Y12, acc1, acc1

#define GEMM_ROW4(aop, acc) \
	VBROADCASTSD aop, Y10; \
	VMULPD       Y10, Y8, Y11; \
	VADDPD       acc, Y11, acc

#define GEMM_ROW4B(aop, acc) \
	VBROADCASTSD aop, Y10; \
	VCMPPD       $4, Y15, Y10, Y13; \
	VMULPD       Y10, Y8, Y11; \
	VADDPD       acc, Y11, Y11; \
	VBLENDVPD    Y13, Y11, acc, acc

DATA gemmtail<>+0(SB)/8, $-1
DATA gemmtail<>+8(SB)/8, $-1
DATA gemmtail<>+16(SB)/8, $-1
DATA gemmtail<>+24(SB)/8, $-1
DATA gemmtail<>+32(SB)/8, $0
DATA gemmtail<>+40(SB)/8, $0
DATA gemmtail<>+48(SB)/8, $0
DATA gemmtail<>+56(SB)/8, $0
GLOBL gemmtail<>(SB), RODATA|NOPTR, $64

TEXT ·gemm4Asm(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ sa+24(FP), R9
	MOVQ ra+32(FP), R10
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), R11
	MOVQ n+64(FP), DX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (R10)(R10*2), R14
	VXORPD Y15, Y15, Y15

gemmTile8:
	CMPQ    DX, $8
	JLT     gemmTile4
	LEAQ    (DI)(R8*2), AX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5
	VMOVUPD (AX)(R8*1), Y6
	VMOVUPD 32(AX)(R8*1), Y7
	MOVQ    SI, R13
	MOVQ    BX, AX
	MOVQ    k+56(FP), R12

gemmStep8:
	GEMM_ZERO(gemmBlend8)
	VMOVUPD (AX), Y8
	VMOVUPD 32(AX), Y9
	GEMM_ROW8((R13), Y0, Y1)
	GEMM_ROW8((R13)(R10*1), Y2, Y3)
	GEMM_ROW8((R13)(R10*2), Y4, Y5)
	GEMM_ROW8((R13)(R14*1), Y6, Y7)

gemmNext8:
	ADDQ R9, R13
	ADDQ R11, AX
	DECQ R12
	JNZ  gemmStep8

	LEAQ    (DI)(R8*2), AX
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	VMOVUPD Y6, (AX)(R8*1)
	VMOVUPD Y7, 32(AX)(R8*1)
	ADDQ    $64, DI
	ADDQ    $64, BX
	SUBQ    $8, DX
	JMP     gemmTile8

gemmBlend8:
	VMOVUPD (AX), Y8
	VMOVUPD 32(AX), Y9
	GEMM_ROW8B((R13), Y0, Y1)
	GEMM_ROW8B((R13)(R10*1), Y2, Y3)
	GEMM_ROW8B((R13)(R10*2), Y4, Y5)
	GEMM_ROW8B((R13)(R14*1), Y6, Y7)
	JMP gemmNext8

	// The 4-wide tile: Y14 masks the first min(DX, 4) lanes, which is row
	// 4 − lanes of gemmtail<>.
gemmTile4:
	TESTQ      DX, DX
	JLE        gemmDone
	MOVQ       $4, R12
	CMPQ       DX, R12
	CMOVQLT    DX, R12
	NEGQ       R12
	LEAQ       gemmtail<>+32(SB), AX
	VMOVUPD    (AX)(R12*8), Y14
	LEAQ       (DI)(R8*2), AX
	VMASKMOVPD (DI), Y14, Y0
	VMASKMOVPD (DI)(R8*1), Y14, Y1
	VMASKMOVPD (AX), Y14, Y2
	VMASKMOVPD (AX)(R8*1), Y14, Y3
	MOVQ       SI, R13
	MOVQ       BX, AX
	MOVQ       k+56(FP), R12

gemmStep4:
	GEMM_ZERO(gemmBlend4)
	VMASKMOVPD (AX), Y14, Y8
	GEMM_ROW4((R13), Y0)
	GEMM_ROW4((R13)(R10*1), Y1)
	GEMM_ROW4((R13)(R10*2), Y2)
	GEMM_ROW4((R13)(R14*1), Y3)

gemmNext4:
	ADDQ R9, R13
	ADDQ R11, AX
	DECQ R12
	JNZ  gemmStep4

	LEAQ       (DI)(R8*2), AX
	VMASKMOVPD Y0, Y14, (DI)
	VMASKMOVPD Y1, Y14, (DI)(R8*1)
	VMASKMOVPD Y2, Y14, (AX)
	VMASKMOVPD Y3, Y14, (AX)(R8*1)
	ADDQ       $32, DI
	ADDQ       $32, BX
	SUBQ       $4, DX
	JMP        gemmTile4

gemmBlend4:
	VMASKMOVPD (AX), Y14, Y8
	GEMM_ROW4B((R13), Y0)
	GEMM_ROW4B((R13)(R10*1), Y1)
	GEMM_ROW4B((R13)(R10*2), Y2)
	GEMM_ROW4B((R13)(R14*1), Y3)
	JMP gemmNext4

gemmDone:
	VZEROUPPER
	RET

// func adamAsm(w, grad, m, v *float64, n int, c *adamConsts)
//
// One Adam update over n elements (n a multiple of 4), four lanes at a
// time, replicating the exact operation order of the scalar loop in
// AdamUpdate (see vecops.go):
//
//	m' = flushTiny(β₁·m + (1−β₁)·g)
//	v' = flushTiny(β₂·v + ((1−β₂)·g)·g)
//	w' = flushTiny(w − (lr·(m'/c1)) / (√(v'/c2) + ε))
//
// Every step uses correctly rounded VMULPD/VADDPD/VDIVPD/VSQRTPD (no FMA),
// so the trajectory is bit-identical to the scalar path. flushTiny keeps a
// lane iff |x| ≥ tiny, with the unordered compare ($5 = NLT_US) keeping
// NaN, exactly like the scalar range test.
TEXT ·adamAsm(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ c+40(FP), BX

	SHRQ $2, CX
	JZ   adamDone

	VBROADCASTSD 0(BX), Y7    // β₁
	VBROADCASTSD 8(BX), Y8    // 1−β₁
	VBROADCASTSD 16(BX), Y9   // β₂
	VBROADCASTSD 24(BX), Y10  // 1−β₂
	VBROADCASTSD 32(BX), Y11  // c1
	VBROADCASTSD 40(BX), Y12  // c2
	VBROADCASTSD 48(BX), Y13  // lr
	VBROADCASTSD 56(BX), Y14  // ε
	VBROADCASTSD 64(BX), Y15  // tiny (flush threshold)
	VBROADCASTSD 72(BX), Y6   // sign-clearing |x| mask

adamLoop:
	VMOVUPD (SI), Y0          // g
	VMOVUPD (R8), Y1          // m

	// m' = β₁·m + (1−β₁)·g, then flushTiny.
	VMULPD  Y7, Y1, Y2
	VMULPD  Y8, Y0, Y3
	VADDPD  Y3, Y2, Y2
	VANDPD  Y6, Y2, Y3        // |m'|
	VCMPPD  $5, Y15, Y3, Y4   // keep where |m'| ≥ tiny (or NaN)
	VANDPD  Y4, Y2, Y2
	VMOVUPD Y2, (R8)

	// v' = β₂·v + ((1−β₂)·g)·g, then flushTiny.
	VMOVUPD (R9), Y1
	VMULPD  Y9, Y1, Y3
	VMULPD  Y10, Y0, Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y3, Y3
	VANDPD  Y6, Y3, Y4
	VCMPPD  $5, Y15, Y4, Y5
	VANDPD  Y5, Y3, Y3
	VMOVUPD Y3, (R9)

	// w' = w − (lr·(m'/c1)) / (√(v'/c2) + ε), then flushTiny.
	VDIVPD  Y11, Y2, Y2       // m̂ = m'/c1
	VDIVPD  Y12, Y3, Y3       // v̂ = v'/c2
	VSQRTPD Y3, Y3
	VADDPD  Y14, Y3, Y3
	VMULPD  Y13, Y2, Y2
	VDIVPD  Y3, Y2, Y2
	VMOVUPD (DI), Y0
	VSUBPD  Y2, Y0, Y0
	VANDPD  Y6, Y0, Y4
	VCMPPD  $5, Y15, Y4, Y5
	VANDPD  Y5, Y0, Y0
	VMOVUPD Y0, (DI)

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ CX
	JNZ  adamLoop

adamDone:
	VZEROUPPER
	RET
