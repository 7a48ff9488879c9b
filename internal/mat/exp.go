package mat

import "math"

// ExpInto sets dst[i] = math.Exp(src[i]) for every i < len(src), bit for bit
// at every dispatch level. dst must be at least as long as src; it may be src
// itself but must not overlap it otherwise.
//
// Under avx2 on a CPU with FMA — exactly where the standard library's amd64
// math.Exp takes its FMA branch — four lanes at a time repeat that branch
// operation for operation. A group of four holding a lane outside ±708 or a
// non-finite lane goes through math.Exp one lane at a time, as do the last
// len(src) mod 4 lanes and every other dispatch level.
func ExpInto(dst, src []float64) {
	dst = dst[:len(src)]
	if expKernel(dst, src) {
		return
	}
	for i, v := range src {
		dst[i] = math.Exp(v)
	}
}
