//go:build amd64 && !noasm

package mat

import "math"

// amd64 SIMD kernels. Two dispatch levels live here:
//
//   - sse2: the 2×4 micro-kernel (dotPanel2x4), part of the amd64 baseline,
//     packing panels on the fly inside mulBTRangeKernel.
//   - avx2: 8-wide micro-kernels (dotPanel2x8 / dotPanel1x8 / dotPanel1x32)
//     consumed through the packed-panel cache, the 4×8 tile of a·b and
//     aᵀ·b (gemm4Asm), plus vectorised axpy, Adam, exp and LSTM-cell
//     kernels. Detected at init via CPUID + XGETBV (OS must have enabled
//     YMM state).
//
// Every routine keeps the repository's exactness contract: one vector lane
// per output element, multiply-then-add in ascending order, no FMA — so
// results are bit-identical to the pure-Go reference at every level. The one
// fused sequence, the EXP4 macro that expAsm and lstmCellAsm share, fuses
// exactly where math.Exp itself does and runs only when math.Exp takes that
// branch.

// detectFeatures fills the dispatch capability flags from CPUID. SSE2 is
// part of the amd64 baseline; AVX2 additionally requires the AVX and AVX2
// feature bits plus OS-enabled XMM+YMM state (XGETBV XCR0 bits 1 and 2).
func detectFeatures() {
	features.sse2 = true
	maxID, _, _, _ := cpuidAsm(0, 0)
	_, _, c1, _ := cpuidAsm(1, 0)
	const (
		cpuidFMA     = 1 << 12
		cpuidOSXSAVE = 1 << 27
		cpuidAVX     = 1 << 28
	)
	avxOS := false
	if c1&cpuidOSXSAVE != 0 {
		lo, _ := xgetbvAsm()
		avxOS = lo&6 == 6
	}
	features.fma = avxOS && c1&cpuidFMA != 0
	if maxID >= 7 {
		_, b7, _, _ := cpuidAsm(7, 0)
		features.avx2 = avxOS && c1&cpuidAVX != 0 && b7&(1<<5) != 0
	}
}

//go:noescape
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbvAsm() (eax, edx uint32)

// maxPanelK bounds the shared dimension the on-the-fly packed-panel path
// handles; the panel (4 interleaved weight rows) must fit a fixed-size stack
// buffer. Every model in this repository has k ≤ 672; larger products use
// the scalar kernel. The heap-packed PanelCache path has no such limit.
const maxPanelK = 1024

// dotPanel2x4 (SSE2) is implemented in kernel_amd64.s.
//
//go:noescape
func dotPanel2x4(a0, a1, panel *float64, k int, out *[8]float64)

// dotPanel2x8 (AVX2) reduces two sample rows against an 8-wide panel.
//
//go:noescape
func dotPanel2x8(a0, a1, panel *float64, k int, out *[16]float64)

// dotPanel1x8 (AVX2) reduces one sample row against an 8-wide panel.
//
//go:noescape
func dotPanel1x8(a, panel *float64, k int, out *[8]float64)

// dotPanel1x32 (AVX2) reduces one sample row against four consecutive 8-wide
// panels (panel points at the first; each is 8·k long), keeping eight
// independent accumulator chains in flight where dotPanel1x8 keeps two.
//
//go:noescape
func dotPanel1x32(a, panel *float64, k int, out *[32]float64)

// axpyAsm (AVX2) computes y[i] += s·x[i] for i < n; n must be a multiple
// of 4.
//
//go:noescape
func axpyAsm(y, x *float64, n int, s float64)

// adamAsm (AVX2) applies one Adam update to n elements (n a multiple of 4),
// replicating the scalar update's exact operation order — see AdamUpdate.
//
//go:noescape
func adamAsm(w, grad, m, v *float64, n int, c *adamConsts)

// adamConsts carries the broadcast scalars of adamAsm in a fixed layout the
// assembly indexes by offset. tiny/absMask implement flushTiny: an element
// is kept iff |x| ≥ tiny (unordered compares keep NaN, matching the scalar
// branch).
type adamConsts struct {
	b1, omb1 float64 // β₁ and 1−β₁
	b2, omb2 float64 // β₂ and 1−β₂
	c1, c2   float64 // bias-correction denominators
	lr, eps  float64
	tiny     float64 // flushTiny threshold (1e-150)
	absMask  float64 // 0x7FFF…F bit pattern, clears the sign bit
}

// expAsm (AVX2+FMA) sets dst[i] = math.Exp(src[i]) four lanes at a time for
// i < n (n a multiple of 4), stopping at the first group that holds a lane
// outside ±708 or a non-finite lane; it returns how many elements it wrote.
//
//go:noescape
func expAsm(dst, src *float64, n int) int

// expKernel runs ExpInto under the avx2 dispatch level on a CPU with FMA —
// the condition under which math.Exp takes the FMA branch expAsm repeats —
// and reports whether it ran.
func expKernel(dst, src []float64) bool {
	n := len(src)
	if n < 4 || ActiveKernel() != KernelAVX2 || !features.fma {
		return false
	}
	q := n &^ 3
	for i := 0; i < q; {
		i += expAsm(&dst[i], &src[i], q-i)
		if i < q { // a group expAsm declined: outside ±708 or not finite
			for end := i + 4; i < end; i++ {
				dst[i] = math.Exp(src[i])
			}
		}
	}
	for i := q; i < n; i++ {
		dst[i] = math.Exp(src[i])
	}
	return true
}

// lstmCellAsm (AVX2+FMA) finishes an LSTM step for units [0, n) (n a
// multiple of 4), stopping before the first units it declines; it returns
// how many units it finished. See LSTMCell.
//
//go:noescape
func lstmCellAsm(z, zh, b, c, h, tc *float64, hid, n int) int

// cellKernel runs LSTMCell's first n units (n > 0, a multiple of 4) under
// the same condition as expKernel and returns how many it finished.
func cellKernel(z, zh, b, c, h, tc []float64, n int) int {
	if ActiveKernel() != KernelAVX2 || !features.fma {
		return 0
	}
	return lstmCellAsm(&z[0], &zh[0], &b[0], &c[0], &h[0], &tc[0], len(c), n)
}

// dotPanelNEON2x4 is the arm64 kernel; unreachable on amd64 (the neon
// dispatch level is never available here).
func dotPanelNEON2x4(a0, a1, panel *float64, k int, out *[8]float64) {
	panic("mat: neon kernel invoked on amd64")
}

// axpyKernel vectorises y += s·x under the avx2 dispatch level and reports
// whether it ran. Multiplication and addition are correctly rounded in SIMD
// exactly as in scalar code and every element is independent, so the result
// is bit-identical to the scalar loop.
func axpyKernel(y, x []float64, s float64) bool {
	n := len(x)
	if n < 16 || ActiveKernel() != KernelAVX2 {
		return false
	}
	q := n &^ 3
	axpyAsm(&y[0], &x[0], q, s)
	for i := q; i < n; i++ {
		y[i] += s * x[i]
	}
	return true
}

// gemm4Asm (AVX2) adds A·b into four dst rows, n columns, over k ≥ 1
// steps, where element (i, s) of A is a[s·sa + i·ra]. See gemmKernel.
//
//go:noescape
func gemm4Asm(dst *float64, ldd int, a *float64, sa, ra int, b *float64, ldb, k, n int)

// gemmKernel adds A·b into dst rows [0, 4·⌊rows/4⌋) under the avx2 dispatch
// level and returns how many rows it finished; the caller runs the rest
// through its axpy loop. Row i of dst starts at dst[i·ldd], element (i, s)
// of A is a[s·sa + i·ra], and row s of b starts at b[s·ldb]; n columns and
// k steps. Each 4-row block goes through gemm4Asm, which keeps the
// accumulation order and the a == 0 skip of the axpy loop, so the result
// is bit-identical to it.
//
// Below four rows there is no full tile, and below four steps too few to
// amortise loading and storing one, so the axpy loop keeps those products
// (the lone-row training path, k = 1, among them).
func gemmKernel(dst []float64, ldd int, a []float64, sa, ra int, b []float64, ldb, rows, k, n int) int {
	if rows < 4 || k < 4 || ActiveKernel() != KernelAVX2 {
		return 0
	}
	full := rows &^ 3
	// The assembly reads and writes these extremes; fail here, not there.
	_ = dst[(full-1)*ldd+n-1]
	_ = a[(full-1)*ra+(k-1)*sa]
	_ = b[(k-1)*ldb+n-1]
	for r := 0; r < full; r += 4 {
		gemm4Asm(&dst[r*ldd], ldd, &a[r*ra], sa, ra, &b[0], ldb, k, n)
	}
	return full
}

// adamKernel vectorises one Adam update under the avx2 dispatch level and
// reports whether it ran. VSQRTPD and VDIVPD are IEEE correctly rounded, so
// the update is bit-identical to the scalar loop in AdamUpdate.
func adamKernel(w, g, m, v []float64, beta1, beta2, c1, c2, lr, eps float64) bool {
	n := len(w)
	if n < 16 || ActiveKernel() != KernelAVX2 {
		return false
	}
	c := adamConsts{
		b1: beta1, omb1: 1 - beta1,
		b2: beta2, omb2: 1 - beta2,
		c1: c1, c2: c2,
		lr: lr, eps: eps,
		tiny:    flushTinyThreshold,
		absMask: absMaskFloat,
	}
	q := n &^ 3
	adamAsm(&w[0], &g[0], &m[0], &v[0], q, &c)
	adamScalar(w[q:], g[q:], m[q:], v[q:], beta1, beta2, c1, c2, lr, eps)
	return true
}

// mulBTRangeKernel computes rows [r0, r1) of dst = a·bᵀ through the SSE2
// micro-kernel and reports true, or returns false to fall back to the
// scalar kernel. Four weight rows at a time are packed into an interleaved
// panel (one pass over b per call, reused across every sample row in the
// range), then each pair of sample rows is reduced in one assembly call.
// Results are bit-identical to the scalar kernel: every output element is
// a multiply-then-add chain over ascending k in its own vector lane.
//
// This on-the-fly path serves uncached products only and re-packs per call
// by design; hot weight matrices go through the PanelCache, which packs
// once (8-wide under avx2) and reuses the panels across calls.
func mulBTRangeKernel(dst, a, b *Matrix, r0, r1 int) bool {
	if ActiveKernel() == KernelGo {
		return false
	}
	k, n := a.Cols, b.Rows
	// Below two sample rows there is no pair for the 2×4 micro-kernel and
	// packing the panel would cost as much as the product itself — batch-of-1
	// (per-sample inference) stays on the scalar kernel.
	if r1-r0 < 2 || k == 0 || k > maxPanelK || n < 4 {
		return false
	}
	var panel [4 * maxPanelK]float64
	var out [8]float64
	j := 0
	for ; j+4 <= n; j += 4 {
		b0 := b.Data[j*k : j*k+k : j*k+k]
		b1 := b.Data[j*k+k : j*k+2*k : j*k+2*k]
		b2 := b.Data[j*k+2*k : j*k+3*k : j*k+3*k]
		b3 := b.Data[j*k+3*k : j*k+4*k : j*k+4*k]
		for kk := 0; kk < k; kk++ {
			p := kk * 4
			panel[p] = b0[kk]
			panel[p+1] = b1[kk]
			panel[p+2] = b2[kk]
			panel[p+3] = b3[kk]
		}
		i := r0
		for ; i+2 <= r1; i += 2 {
			dotPanel2x4(&a.Data[i*k], &a.Data[i*k+k], &panel[0], k, &out)
			o0 := dst.Data[i*dst.Cols : i*dst.Cols+n]
			o1 := dst.Data[(i+1)*dst.Cols : (i+1)*dst.Cols+n]
			o0[j], o0[j+1], o0[j+2], o0[j+3] = out[0], out[1], out[2], out[3]
			o1[j], o1[j+1], o1[j+2], o1[j+3] = out[4], out[5], out[6], out[7]
		}
		if i < r1 { // odd trailing row: scalar 1×4, same accumulation order
			arow := a.Data[i*k : i*k+k : i*k+k]
			orow := dst.Data[i*dst.Cols : i*dst.Cols+n]
			var s0, s1, s2, s3 float64
			for kk, av := range arow {
				s0 += av * b0[kk]
				s1 += av * b1[kk]
				s2 += av * b2[kk]
				s3 += av * b3[kk]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
	}
	// Tail columns (n mod 4): scalar dots, same order.
	for ; j < n; j++ {
		brow := b.Data[j*k : j*k+k : j*k+k]
		for i := r0; i < r1; i++ {
			arow := a.Data[i*k : i*k+k : i*k+k]
			var s float64
			for kk, av := range arow {
				s += av * brow[kk]
			}
			dst.Data[i*dst.Cols+j] = s
		}
	}
	return true
}
