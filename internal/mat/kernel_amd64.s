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

// Constants of expAsm: the literals of the standard library's amd64 math.Exp
// (src/math/exp_amd64.s), plus the lane guard and the exponent bias.
DATA expc<>+0(SB)/8, $1.4426950408889634073599246810018920                     // log2(e)
DATA expc<>+8(SB)/8, $0.69314718055966295651160180568695068359375               // ln 2, upper part
DATA expc<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12    // ln 2, lower part
DATA expc<>+24(SB)/8, $0.0625
DATA expc<>+32(SB)/8, $2.4801587301587301587e-5                                // Taylor 1/8!
DATA expc<>+40(SB)/8, $1.9841269841269841270e-4                                // 1/7!
DATA expc<>+48(SB)/8, $1.3888888888888888889e-3                                // 1/6!
DATA expc<>+56(SB)/8, $8.3333333333333333333e-3                                // 1/5!
DATA expc<>+64(SB)/8, $4.1666666666666666667e-2                                // 1/4!
DATA expc<>+72(SB)/8, $1.6666666666666666667e-1                                // 1/3!
DATA expc<>+80(SB)/8, $0.5
DATA expc<>+88(SB)/8, $1.0
DATA expc<>+96(SB)/8, $2.0
DATA expc<>+104(SB)/8, $708.0                                                  // lane guard: |x| ≤ 708
DATA expc<>+112(SB)/8, $0x7FFFFFFFFFFFFFFF                                     // clears the sign bit
DATA expc<>+120(SB)/8, $0x3FF                                                  // exponent bias
GLOBL expc<>(SB), RODATA|NOPTR, $128

// func expAsm(dst, src *float64, n int) int
//
// dst[i] = math.Exp(src[i]) for i < n, n a multiple of 4, four lanes per
// group. Each group repeats, instruction for instruction, the avxfma branch
// of math.Exp's amd64 assembly — the same constants, the same fused
// VFNMADD/VFMADD steps where it fuses and plain VMULPD/VADDPD where it does
// not — so each lane rounds exactly as math.Exp does on a CPU with FMA.
// For |x| ≤ 708 that branch never reaches its overflow or subnormal exits
// (|round(x·log2 e)| ≤ 1022), so those exits need no vector form: the first
// group holding a lane outside ±708, or a NaN or ±Inf lane, stops the loop,
// and the return value (elements written) tells the caller where.
TEXT ·expAsm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

	VBROADCASTSD expc<>+112(SB), Y4 // sign-clearing mask
	VBROADCASTSD expc<>+104(SB), Y5 // 708
	VBROADCASTSD expc<>+0(SB), Y6   // log2(e)
	VBROADCASTSD expc<>+8(SB), Y7   // ln 2 upper
	VBROADCASTSD expc<>+16(SB), Y8  // ln 2 lower
	VBROADCASTSD expc<>+24(SB), Y9  // 0.0625
	VBROADCASTSD expc<>+40(SB), Y10 // 1/7!
	VBROADCASTSD expc<>+48(SB), Y11 // 1/6!
	VBROADCASTSD expc<>+56(SB), Y12 // 1/5!
	VBROADCASTSD expc<>+64(SB), Y13 // 1/4!
	VBROADCASTSD expc<>+72(SB), Y14 // 1/3!
	VBROADCASTSD expc<>+96(SB), Y15 // 2

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

	// n = round(x·log2 e) under the MXCSR rounding mode, as CVTSD2SL does.
	VMULPD     Y6, Y0, Y1
	VCVTPD2DQY Y1, X2
	VCVTDQ2PD  X2, Y1

	// r = (x − n·ln2u − n·ln2l) / 16, both subtractions fused.
	VFNMADD231PD Y7, Y1, Y0
	VFNMADD231PD Y8, Y1, Y0
	VMULPD       Y9, Y0, Y0

	// p = ((((((1/8!·r + 1/7!)·r + 1/6!)·r + 1/5!)·r + 1/4!)·r + 1/3!)·r + 1/2)·r + 1,
	// each step fused.
	VBROADCASTSD expc<>+32(SB), Y1
	VFMADD213PD  Y10, Y0, Y1
	VFMADD213PD  Y11, Y0, Y1
	VFMADD213PD  Y12, Y0, Y1
	VFMADD213PD  Y13, Y0, Y1
	VFMADD213PD  Y14, Y0, Y1
	VBROADCASTSD expc<>+80(SB), Y3
	VFMADD213PD  Y3, Y0, Y1
	VBROADCASTSD expc<>+88(SB), Y3
	VFMADD213PD  Y3, Y0, Y1

	// y = r·p, squared back up four times: y = y·(y+2) thrice, then
	// y = (y+2)·y + 1 fused.
	VMULPD      Y1, Y0, Y0
	VADDPD      Y15, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y15, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y15, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      Y15, Y0, Y1
	VFMADD213PD Y3, Y1, Y0

	// Scale by 2ⁿ: (n + 1023) << 52 is the bit pattern of 2ⁿ.
	VPMOVSXDQ    X2, Y1
	VPBROADCASTQ expc<>+120(SB), Y3
	VPADDQ       Y3, Y1, Y1
	VPSLLQ       $52, Y1, Y1
	VMULPD       Y1, Y0, Y0

	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     expLoop

expDone:
	MOVQ AX, ret+24(FP)
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
