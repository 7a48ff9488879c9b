package mat

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"
)

// Runtime kernel dispatch.
//
// The compute kernels come in up to three implementations per architecture,
// selected once at init from CPU feature detection and overridable for
// benchmarking and tests:
//
//	go    pure-Go register-blocked kernels — the reference every other path
//	      is pinned against, and the only path under the noasm build tag
//	sse2  amd64 baseline: the 2×4 SSE2 micro-kernel (per-lane
//	      multiply-then-add, bit-identical to the reference)
//	avx2  amd64 with AVX2: 2×8 / 1×8 / 1×32 micro-kernels over 8-wide
//	      packed panels, a 4×8 register tile for a·b and aᵀ·b (MulInto,
//	      MulTInto, MulTAddInto) that keeps the reference's a == 0 skip,
//	      plus vectorised axpy/Adam/exp/LSTM-cell kernels (still per-lane
//	      multiply-then-add — AVX2 is used for width, not fusion — so
//	      results stay bit-identical to the reference). The
//	      one exception is the exp sequence that ExpInto and the LSTM cell
//	      kernel share: it fuses exactly where the standard library's
//	      amd64 math.Exp fuses, and runs only on a CPU with FMA, where
//	      math.Exp takes that fused branch itself, so it too matches the
//	      reference — math.Exp — bit for bit. The rest of the cell (gate
//	      sums, σ's division, tanh's blended branches, the state update) is
//	      unfused and matches the scalar cell the same way
//	neon  arm64 NEON 2×4 panel kernel. NEON float64 vector arithmetic is
//	      only available fused (FMLA), which rounds once per
//	      multiply-accumulate instead of twice; results are therefore NOT
//	      bit-identical to the reference (each output element differs by a
//	      bounded accumulation of half-ULP roundings). Because the
//	      repository's equivalence contract pins batch results exactly to
//	      per-sample results, neon is opt-in: arm64 defaults to the go
//	      kernel and operators select neon explicitly for throughput.
//
// Selection order at init: the widest exact kernel the CPU supports
// (avx2 → sse2 → go on amd64; go on everything else). The REPRO_KERNEL
// environment variable (values as above) overrides the default, and
// SetKernel does the same programmatically. Switching kernels mid-run is
// safe — packed panels remember the width they were packed at and every
// width has a pure-Go consumer — but is intended for startup, tests and
// the roofline harness, not per-request toggling.

// Kernel identifies one dispatch level.
type Kernel int32

// The dispatch levels. Not every level is available on every machine; see
// AvailableKernels.
const (
	KernelGo Kernel = iota
	KernelSSE2
	KernelAVX2
	KernelNEON
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case KernelGo:
		return "go"
	case KernelSSE2:
		return "sse2"
	case KernelAVX2:
		return "avx2"
	case KernelNEON:
		return "neon"
	default:
		return fmt.Sprintf("Kernel(%d)", int32(k))
	}
}

// activeKernel is the current dispatch level, read on every kernel entry.
var activeKernel atomic.Int32

// kernelFeatures is populated by the per-architecture init (kernel_amd64.go
// / kernel_arm64.go); the generic build leaves everything false.
type cpuFeatures struct {
	sse2 bool // amd64 baseline (always true on amd64 builds with asm)
	avx2 bool // AVX2 + OS YMM support
	fma  bool // FMA3: math.Exp takes its fused branch, so the exp kernel may run
	neon bool // arm64 AdvSIMD (always true on arm64 builds with asm)
}

var features cpuFeatures

func init() {
	detectFeatures() // per-architecture; no-op on generic builds
	activeKernel.Store(int32(defaultKernel()))
	if env := os.Getenv("REPRO_KERNEL"); env != "" {
		// Ignore an invalid/unavailable override rather than failing init:
		// the variable is a tuning knob, and the default is always correct.
		_ = SetKernel(env)
	}
}

// defaultKernel picks the widest exact kernel the machine supports. NEON is
// deliberately not a default (see the package comment above).
func defaultKernel() Kernel {
	switch {
	case features.avx2:
		return KernelAVX2
	case features.sse2:
		return KernelSSE2
	default:
		return KernelGo
	}
}

// ActiveKernel reports the dispatch level kernels currently run at.
func ActiveKernel() Kernel { return Kernel(activeKernel.Load()) }

// KernelName reports the active dispatch level's name ("go", "sse2",
// "avx2", "neon").
func KernelName() string { return ActiveKernel().String() }

// AvailableKernels lists the dispatch levels this machine can run, "go"
// always included, in ascending width order.
func AvailableKernels() []string {
	names := []string{KernelGo.String()}
	if features.sse2 {
		names = append(names, KernelSSE2.String())
	}
	if features.avx2 {
		names = append(names, KernelAVX2.String())
	}
	if features.neon {
		names = append(names, KernelNEON.String())
	}
	sort.Strings(names)
	return names
}

// SetKernel switches the dispatch level by name. It returns an error if the
// name is unknown or the level is unavailable on this machine. Intended for
// startup configuration, tests and the roofline harness; panels packed at
// the previous level keep working (consumed by the pure-Go kernel of their
// recorded width) until their caches are invalidated.
func SetKernel(name string) error {
	var k Kernel
	switch name {
	case "go":
		k = KernelGo
	case "sse2":
		k = KernelSSE2
	case "avx2":
		k = KernelAVX2
	case "neon":
		k = KernelNEON
	default:
		return fmt.Errorf("mat: unknown kernel %q (want go|sse2|avx2|neon)", name)
	}
	if !kernelAvailable(k) {
		return fmt.Errorf("mat: kernel %q unavailable on this machine (have %v)", name, AvailableKernels())
	}
	activeKernel.Store(int32(k))
	return nil
}

func kernelAvailable(k Kernel) bool {
	switch k {
	case KernelGo:
		return true
	case KernelSSE2:
		return features.sse2
	case KernelAVX2:
		return features.avx2
	case KernelNEON:
		return features.neon
	default:
		return false
	}
}

// KernelExact reports whether the given dispatch level produces bit-identical
// results to the pure-Go reference (true for every level except neon, whose
// only vector arithmetic is fused multiply-add).
func KernelExact(k Kernel) bool { return k != KernelNEON }

// packWidth is the panel width (output columns interleaved per panel group)
// weights are packed at under the active kernel: 8 for the AVX2 micro-kernel,
// 4 everywhere else (SSE2 and NEON consume 4-wide panels; the pure-Go panel
// kernel handles any width).
func packWidth() int {
	if ActiveKernel() == KernelAVX2 {
		return 8
	}
	return 4
}
