package mat

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Packed-panel weight storage.
//
// The batch forward pass is dominated by Y = X·Wᵀ products against weight
// matrices that do not change between optimiser steps. The on-the-fly SSE2
// path in mulBTRangeKernel re-interleaves W's rows into panels on every
// call; packing once into a Packed and reusing it across calls removes that
// traffic entirely and is what unlocks the 8-wide AVX2 micro-kernel, whose
// panel would otherwise overflow the on-the-fly path's stack buffer budget.
//
// Packing pays only when the panels are reused. Inference and minibatch
// training consume weights through a PanelCache. Per-sample training does
// not: every optimiser step invalidates the panels, so packing for one row
// would copy every weight to use it once, and nn.Dense.ForwardBatch on a
// lone row calls MulBTInto on the weight matrix instead (bit-identical).
//
// Layout: the rows of the packed matrix b (the weight matrix, one row per
// output column of dst) are grouped `width` at a time. Group g occupies
// data[g·width·k : (g+1)·width·k] with element [kk·width + c] holding
// b[g·width+c][kk] — i.e. the group's rows interleaved so one contiguous
// `width`-element load yields one position kk across all columns of the
// group. The trailing r = rows mod width rows are stored at the end with
// stride r (element [kk·r + c]), consumed by the generic Go loop.
//
// Panels always hold float64. Quantization (nn.QuantizeParams) rounds the
// weight matrix in place to fp16- or int8-representable values before it is
// packed, so the panels of a quantized model carry exactly those values and
// need no storage format of their own.

// Packed is a weight matrix interleaved for the panel micro-kernels,
// produced by Pack. It is immutable after construction and safe to share
// across goroutines.
type Packed struct {
	rows, cols int // dimensions of the source matrix (b.Rows × b.Cols)
	width      int // panel width the full groups are interleaved at
	data       []float64
}

// Rows reports the source matrix's row count (= output columns of a·bᵀ).
func (p *Packed) Rows() int { return p.rows }

// Cols reports the source matrix's column count (the shared dimension).
func (p *Packed) Cols() int { return p.cols }

// Width reports the panel width full groups are interleaved at.
func (p *Packed) Width() int { return p.width }

// Bytes reports the resident size of the packed weight data — the bytes a
// full product must stream per pass, which is what the roofline harness
// charges panel kernels for.
func (p *Packed) Bytes() int { return len(p.data) * 8 }

// Pack interleaves b into panels for the active kernel's width. The
// returned Packed snapshots b; later writes to b are not reflected.
func Pack(b *Matrix) *Packed {
	n, k := b.Rows, b.Cols
	w := packWidth()
	p := &Packed{rows: n, cols: k, width: w, data: make([]float64, n*k)}
	// Rows are grouped w at a time; the trailing group is narrower.
	for r0 := 0; r0 < n; r0 += w {
		gw := min(w, n-r0)
		group := p.data[r0*k : (r0+gw)*k]
		for c := 0; c < gw; c++ {
			for kk, v := range b.Data[(r0+c)*k : (r0+c+1)*k] {
				group[kk*gw+c] = v
			}
		}
	}
	return p
}

// I8RowScale returns the int8 quantization scale for one weight row: the
// smallest power of two with max|row| ≤ 127·scale (0 for an all-zero or
// non-finite row, which quantizes to zeros). A power of two makes q·scale
// and v/scale exact float64 operations, so quantization is idempotent and
// int8 codes decode bit-identically to the in-place quantized matrix.
func I8RowScale(row []float64) float64 {
	maxAbs := 0.0
	for _, v := range row {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 || math.IsInf(maxAbs, 0) || math.IsNaN(maxAbs) {
		return 0
	}
	// maxAbs = f·2^e with f ∈ [0.5, 1). scale = 2^(e−7) satisfies
	// 127·scale ≥ maxAbs iff f ≤ 127/128; the remaining sliver needs one
	// more bit.
	f, e := math.Frexp(maxAbs)
	s := e - 7
	if f > 127.0/128.0 {
		s = e - 6
	}
	return math.Ldexp(1, s)
}

// I8Quantize returns the int8 code of v at the given power-of-two scale:
// round(v/scale) clamped to [−127, 127] (0 when scale is 0).
func I8Quantize(v, scale float64) int8 {
	if scale == 0 {
		return 0
	}
	q := math.Round(v / scale)
	if q > 127 {
		q = 127
	} else if q < -127 {
		q = -127
	}
	return int8(q)
}

// QuantizeI8 rounds v to its int8-representable value at scale — the value
// its int8 code decodes to (q·scale is exact for power-of-two scales).
func QuantizeI8(v, scale float64) float64 {
	return float64(I8Quantize(v, scale)) * scale
}

// PanelCache memoises one Packed per weight matrix so steady-state
// inference packs once and reuses the panels across every batch. The zero
// value is ready to use. It must not be copied after first use.
//
// Contract: every code path that mutates the weight matrix must call
// Invalidate afterwards (the optimiser steps, snapshot restore and
// quantization all do, via nn.Param.Cache). Concurrent readers during a
// repack may pack twice; both results are identical and the duplicate is
// garbage collected.
type PanelCache struct {
	packed atomic.Pointer[Packed]
}

// Invalidate drops the cached panels. Call after any write to the weight
// matrix.
func (c *PanelCache) Invalidate() { c.packed.Store(nil) }

// Cached returns the currently cached panels without packing (nil when the
// cache is empty or was invalidated). Intended for tests and introspection.
func (c *PanelCache) Cached() *Packed { return c.packed.Load() }

// get returns panels for b, packing (and caching) them if the cache is
// empty, was invalidated, belongs to a differently-shaped matrix, or was
// packed at a different width than the active kernel's (e.g. after
// SetKernel changed the panel width).
func (c *PanelCache) get(b *Matrix) *Packed {
	if p := c.packed.Load(); p != nil &&
		p.width == packWidth() && p.rows == b.Rows && p.cols == b.Cols {
		return p
	}
	p := Pack(b)
	c.packed.Store(p)
	return p
}

// MulBTCachedInto computes dst = a·bᵀ like MulBTInto, but consumes b
// through the panel cache: b is packed once (at the active kernel's width)
// and the panels are reused across calls until the cache is invalidated. A
// nil cache falls back to MulBTInto. Results are bit-identical to MulBTInto
// at every exact dispatch level.
func MulBTCachedInto(dst, a, b *Matrix, c *PanelCache) error {
	if c == nil {
		return MulBTInto(dst, a, b)
	}
	if a.Cols != b.Cols {
		return fmt.Errorf("%w: MulBTCachedInto %dx%d by (%dx%d)ᵀ", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	return MulBTPackedInto(dst, a, c.get(b))
}

// MulBTPackedInto computes dst = a·bᵀ from pre-packed panels of b. dst
// must be a.Rows×p.Rows() and must not alias a.
func MulBTPackedInto(dst, a *Matrix, p *Packed) error {
	if a.Cols != p.cols {
		return fmt.Errorf("%w: MulBTPackedInto %dx%d by packed (%dx%d)ᵀ", ErrShape, a.Rows, a.Cols, p.rows, p.cols)
	}
	if dst.Rows != a.Rows || dst.Cols != p.rows {
		return fmt.Errorf("%w: MulBTPackedInto dst %dx%d, want %dx%d", ErrShape, dst.Rows, dst.Cols, a.Rows, p.rows)
	}
	m, k, n := a.Rows, p.cols, p.rows
	if m == 0 || n == 0 {
		return nil
	}
	if k == 0 {
		for i := range dst.Data {
			dst.Data[i] = 0
		}
		return nil
	}
	if w := parallelWorth(m, 2*int64(m)*int64(k)*int64(n)); w > 1 {
		fanOutRows(m, w, func(r0, r1 int) { mulBTPackedRange(dst, a, p, r0, r1) })
	} else {
		mulBTPackedRange(dst, a, p, 0, m)
	}
	return nil
}

// mulBTPackedRange computes rows [r0, r1) of dst = a·bᵀ from packed
// panels, selecting the widest micro-kernel the active dispatch level and
// the panel's recorded width allow; every other combination (including
// panels packed under a previous kernel) runs the generic Go consumer.
// Panel consumers never skip zero operands: each output element is the
// plain multiply-then-add chain over ascending kk, bit-identical to
// MulBTInto.
func mulBTPackedRange(dst, a *Matrix, p *Packed, r0, r1 int) {
	switch kern := ActiveKernel(); {
	case p.width == 8 && kern == KernelAVX2:
		mulBTPackedAVX2(dst, a, p, r0, r1)
		return
	case p.width == 4 && (kern == KernelSSE2 || kern == KernelAVX2):
		mulBTPackedSSE2(dst, a, p, r0, r1)
		return
	case p.width == 4 && kern == KernelNEON:
		mulBTPackedNEON(dst, a, p, r0, r1)
		return
	}
	k, n, w := p.cols, p.rows, p.width
	for j := 0; j < n; j += w {
		gw := min(w, n-j)
		mulBTPanelF64(dst, a, p.data[j*k:(j+gw)*k], k, j, gw, r0, r1)
	}
}

// mulBTPackedAVX2 consumes 8-wide panels with the 2×8 AVX2 micro-kernel
// over row pairs. A lone or odd trailing row — every product at batch 1 —
// takes four panels at a time through the 1×32 kernel, then the rest through
// the 1×8 one. The tail columns run the generic consumer.
func mulBTPackedAVX2(dst, a *Matrix, p *Packed, r0, r1 int) {
	k, n := p.cols, p.rows
	groups := n / 8
	pairs := r0 + (r1-r0)&^1
	var out2 [16]float64
	for g := 0; g < groups; g++ {
		panel := p.data[g*8*k : (g+1)*8*k]
		j := g * 8
		for i := r0; i < pairs; i += 2 {
			dotPanel2x8(&a.Data[i*k], &a.Data[(i+1)*k], &panel[0], k, &out2)
			copy(dst.Data[i*dst.Cols+j:i*dst.Cols+j+8], out2[:8])
			copy(dst.Data[(i+1)*dst.Cols+j:(i+1)*dst.Cols+j+8], out2[8:])
		}
	}
	if i := pairs; i < r1 {
		orow := dst.Data[i*dst.Cols : i*dst.Cols+groups*8]
		g := 0
		for ; g+4 <= groups; g += 4 {
			dotPanel1x32(&a.Data[i*k], &p.data[g*8*k], k, (*[32]float64)(orow[g*8:g*8+32]))
		}
		for ; g < groups; g++ {
			dotPanel1x8(&a.Data[i*k], &p.data[g*8*k], k, (*[8]float64)(orow[g*8:g*8+8]))
		}
	}
	if tail := n - groups*8; tail > 0 {
		mulBTPanelF64(dst, a, p.data[groups*8*k:], k, groups*8, tail, r0, r1)
	}
}

// mulBTPackedSSE2 consumes 4-wide panels with the 2×4 SSE2 micro-kernel.
func mulBTPackedSSE2(dst, a *Matrix, p *Packed, r0, r1 int) {
	k, n := p.cols, p.rows
	groups := n / 4
	var out [8]float64
	for g := 0; g < groups; g++ {
		panel := p.data[g*4*k : (g+1)*4*k]
		j := g * 4
		i := r0
		for ; i+2 <= r1; i += 2 {
			dotPanel2x4(&a.Data[i*k], &a.Data[(i+1)*k], &panel[0], k, &out)
			copy(dst.Data[i*dst.Cols+j:i*dst.Cols+j+4], out[:4])
			copy(dst.Data[(i+1)*dst.Cols+j:(i+1)*dst.Cols+j+4], out[4:])
		}
		if i < r1 {
			mulBTPanelF64(dst, a, panel, k, j, 4, i, i+1)
		}
	}
	if tail := n - groups*4; tail > 0 {
		mulBTPanelF64(dst, a, p.data[groups*4*k:], k, groups*4, tail, r0, r1)
	}
}

// mulBTPackedNEON consumes 4-wide panels with the NEON 2×4 micro-kernel
// (fused multiply-add: bounded-ULP, opt-in — see the dispatch rules).
func mulBTPackedNEON(dst, a *Matrix, p *Packed, r0, r1 int) {
	k, n := p.cols, p.rows
	groups := n / 4
	var out [8]float64
	for g := 0; g < groups; g++ {
		panel := p.data[g*4*k : (g+1)*4*k]
		j := g * 4
		i := r0
		for ; i+2 <= r1; i += 2 {
			dotPanelNEON2x4(&a.Data[i*k], &a.Data[(i+1)*k], &panel[0], k, &out)
			copy(dst.Data[i*dst.Cols+j:i*dst.Cols+j+4], out[:4])
			copy(dst.Data[(i+1)*dst.Cols+j:(i+1)*dst.Cols+j+4], out[4:])
		}
		if i < r1 {
			mulBTPanelF64(dst, a, panel, k, j, 4, i, i+1)
		}
	}
	if tail := n - groups*4; tail > 0 {
		mulBTPanelF64(dst, a, p.data[groups*4*k:], k, groups*4, tail, r0, r1)
	}
}

// mulBTPanelF64 is the generic Go consumer of one float64 panel of width
// w ≤ 8 at stride w, writing dst columns [j0, j0+w) for rows [r0, r1).
func mulBTPanelF64(dst, a *Matrix, panel []float64, k, j0, w, r0, r1 int) {
	for i := r0; i < r1; i++ {
		arow := a.Data[i*k : i*k+k : i*k+k]
		var acc [8]float64
		for kk, av := range arow {
			pb := panel[kk*w : kk*w+w : kk*w+w]
			for c, bv := range pb {
				acc[c] += av * bv
			}
		}
		copy(dst.Data[i*dst.Cols+j0:i*dst.Cols+j0+w], acc[:w])
	}
}
