//go:build (!amd64 && !arm64) || noasm

package mat

// Pure-Go build: architectures without an assembly micro-kernel, and every
// architecture under the noasm build tag (the CI leg that runs the
// reference kernels under -race). No CPU features are reported, so the
// dispatcher pins the "go" level and none of the stubs below is reachable.

func detectFeatures() {}

// mulBTRangeKernel reports false; mulBTRange falls back to the pure-Go
// register-blocked kernel, which computes identical results.
func mulBTRangeKernel(dst, a, b *Matrix, r0, r1 int) bool {
	return false
}

// axpyKernel reports false; callers use the scalar loop.
func axpyKernel(y, x []float64, s float64) bool { return false }

// gemmKernel finishes no rows; the caller's axpy loop runs them all.
func gemmKernel(dst []float64, ldd int, a []float64, sa, ra int, b []float64, ldb, rows, k, n int) int {
	return 0
}

// adamKernel reports false; callers use the scalar loop.
func adamKernel(w, g, m, v []float64, beta1, beta2, c1, c2, lr, eps float64) bool {
	return false
}

// expKernel reports false; ExpInto calls math.Exp per element.
func expKernel(dst, src []float64) bool { return false }

// cellKernel finishes no units; LSTMCell's caller runs the scalar cell.
func cellKernel(z, zh, b, c, h, tc []float64, n int) int { return 0 }

func dotPanel2x4(a0, a1, panel *float64, k int, out *[8]float64) {
	panic("mat: sse2 kernel invoked on a pure-Go build")
}

func dotPanel2x8(a0, a1, panel *float64, k int, out *[16]float64) {
	panic("mat: avx2 kernel invoked on a pure-Go build")
}

func dotPanel1x8(a, panel *float64, k int, out *[8]float64) {
	panic("mat: avx2 kernel invoked on a pure-Go build")
}

func dotPanel1x32(a, panel *float64, k int, out *[32]float64) {
	panic("mat: avx2 kernel invoked on a pure-Go build")
}

func dotPanelNEON2x4(a0, a1, panel *float64, k int, out *[8]float64) {
	panic("mat: neon kernel invoked on a pure-Go build")
}
