//go:build arm64 && !noasm

package mat

// arm64 NEON kernel. AdvSIMD is part of the arm64 baseline, so the neon
// dispatch level is always *available* here — but it is never the default.
// Go's arm64 assembler exposes vector float64 arithmetic only in fused form
// (VFMLA: one rounding per multiply-accumulate where the reference rounds
// twice), so the NEON panel kernel is a bounded-ULP throughput path that
// operators opt into with SetKernel("neon") / REPRO_KERNEL=neon; the
// default arm64 kernel stays the bit-exact pure-Go reference. See the
// dispatch rules in dispatch.go and the error-budget tests in
// pack_test.go.

// detectFeatures marks NEON available; everything else is amd64-only.
func detectFeatures() { features.neon = true }

// dotPanelNEON2x4 is implemented in kernel_arm64.s: two sample rows against
// four weight rows interleaved into panel (panel[4·kk+c] is weight row c at
// position kk), accumulated with VFMLA in ascending k order. out layout:
// [r0c0..r0c3 r1c0..r1c3].
//
//go:noescape
func dotPanelNEON2x4(a0, a1, panel *float64, k int, out *[8]float64)

// The amd64 kernels are unreachable on arm64 (the sse2/avx2 dispatch levels
// are never available here).

func dotPanel2x4(a0, a1, panel *float64, k int, out *[8]float64) {
	panic("mat: sse2 kernel invoked on arm64")
}

func dotPanel2x8(a0, a1, panel *float64, k int, out *[16]float64) {
	panic("mat: avx2 kernel invoked on arm64")
}

func dotPanel1x8(a, panel *float64, k int, out *[8]float64) {
	panic("mat: avx2 kernel invoked on arm64")
}

func dotPanel1x32(a, panel *float64, k int, out *[32]float64) {
	panic("mat: avx2 kernel invoked on arm64")
}

// axpyKernel has no arm64 assembly (unfused vector multiply-add does not
// exist in the arm64 assembler); the scalar loop is used at every level.
func axpyKernel(y, x []float64, s float64) bool { return false }

// gemmKernel has no arm64 assembly; the axpy loop runs every row.
func gemmKernel(dst []float64, ldd int, a []float64, sa, ra int, b []float64, ldb, rows, k, n int) int {
	return 0
}

// adamKernel has no arm64 assembly; the scalar loop is used at every level.
func adamKernel(w, g, m, v []float64, beta1, beta2, c1, c2, lr, eps float64) bool {
	return false
}

// expKernel has no arm64 assembly; ExpInto calls math.Exp per element.
func expKernel(dst, src []float64) bool { return false }

// cellKernel has no arm64 assembly; LSTMCell's caller runs the scalar cell.
func cellKernel(z, zh, b, c, h, tc []float64, n int) int { return 0 }

// mulBTRangeKernel reports false: the on-the-fly pack path is amd64-only.
// NEON consumption happens through the PanelCache packed path, where the
// pack cost is paid once instead of per call.
func mulBTRangeKernel(dst, a, b *Matrix, r0, r1 int) bool { return false }
