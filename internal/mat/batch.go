package mat

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Batch matrix-multiply kernels.
//
// These are the compute core of the batched tensor engine: allocation-free
// (the caller owns dst, and the sequential path builds no closures), blocked
// so operand tiles stay cache-resident across a row block, and parallelised
// over the repository's worker pool for large products. Three orientations
// cover the whole model stack without ever materialising a transpose:
//
//	MulInto     dst = a·b      batch backward   dX = dY·W
//	MulBTInto   dst = a·bᵀ     batch forward    Y  = X·Wᵀ
//	MulTInto    dst = aᵀ·b     weight gradient  dW = dYᵀ·X (MulTAddInto accumulates)
//
// Determinism contract: element (i,j) of dst accumulates over the shared
// dimension in ascending order, and every dst row is produced by exactly one
// worker — so the result is bit-identical to the sequential kernels (and to
// the per-sample matrix-vector and OuterAdd loops) for any worker count and
// any block size.

const (
	// mulParallelFlops is the MAC count above which a kernel fans row blocks
	// out across the worker pool; below it the goroutine handoff costs more
	// than it saves.
	mulParallelFlops = 1 << 18
	// mulBlockK tiles the shared dimension of MulInto so the corresponding
	// rows of b are reused across a whole row block before being evicted.
	mulBlockK = 128
	// mulBlockJ tiles the output columns of MulInto; together with mulBlockK
	// it bounds the working tile of b to mulBlockK×mulBlockJ values (~256 KB).
	mulBlockJ = 256
)

// fanOutRows partitions [0, rows) into contiguous blocks and runs body on
// each across the worker pool. body must touch only dst rows in its [r0, r1)
// range; blocks never overlap, so the kernels stay data-race free and
// bit-identical for any worker count. Callers check parallelWorth first and
// fall back to a direct (closure-free, allocation-free) call when the
// product is too small to amortise the goroutines.
func fanOutRows(rows, workers int, body func(r0, r1 int)) {
	// A few blocks per worker so a slow block does not straggle, each a
	// multiple of 4 rows so gemmKernel's 4-row tiles cover it whole.
	blockRows := max(8, (rows/(4*workers)+3)&^3)
	blocks := (rows + blockRows - 1) / blockRows
	_ = parallel.ForEach(0, blocks, func(bi int) error {
		r0 := bi * blockRows
		r1 := r0 + blockRows
		if r1 > rows {
			r1 = rows
		}
		body(r0, r1)
		return nil
	})
}

// parallelWorth reports how many workers a rows×(flops) product should fan
// out to; 1 means stay sequential.
func parallelWorth(rows int, flops int64) int {
	if rows < 16 || flops < mulParallelFlops {
		return 1
	}
	return parallel.Workers(0, rows)
}

// SequentialRows reports the most rows a product with shared dimension k and
// n output columns can have and still run on the calling goroutine; larger
// products fan out over the worker pool. A caller that splits a product into
// row blocks of its own sizes them with it so that no block spawns
// goroutines.
func SequentialRows(k, n int) int {
	perRow := 2 * int64(k) * int64(n)
	if perRow == 0 {
		return math.MaxInt
	}
	return max(15, int((mulParallelFlops-1)/perRow))
}

// MulInto computes dst = a·b without allocating. dst must be a.Rows×b.Cols
// and must not alias a or b.
func MulInto(dst, a, b *Matrix) error {
	if a.Cols != b.Rows {
		return fmt.Errorf("%w: MulInto %dx%d by %dx%d", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		return fmt.Errorf("%w: MulInto dst %dx%d, want %dx%d", ErrShape, dst.Rows, dst.Cols, a.Rows, b.Cols)
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	if m == 0 || n == 0 {
		return nil
	}
	if w := parallelWorth(m, 2*int64(m)*int64(k)*int64(n)); w > 1 {
		fanOutRows(m, w, func(r0, r1 int) { mulRange(dst, a, b, r0, r1) })
	} else {
		mulRange(dst, a, b, 0, m)
	}
	return nil
}

// mulRange computes rows [r0, r1) of dst = a·b with k/j tiling: a
// mulBlockK×mulBlockJ tile of b is reused across every row of the block
// before moving on. k-blocks ascend, so each element still accumulates the
// shared dimension in ascending order. Within a tile, gemmKernel takes the
// rows in blocks of 4 under avx2 (a·b is its A·b with sa = 1, ra = k) and
// the axpy loop takes the rest — one axpy per nonzero a[i,kk], the
// reference the kernel matches bit for bit.
func mulRange(dst, a, b *Matrix, r0, r1 int) {
	k, n := a.Cols, b.Cols
	for i := r0; i < r1; i++ {
		orow := dst.Data[i*n : (i+1)*n]
		for j := range orow {
			orow[j] = 0
		}
	}
	for j0 := 0; j0 < n; j0 += mulBlockJ {
		j1 := j0 + mulBlockJ
		if j1 > n {
			j1 = n
		}
		for k0 := 0; k0 < k; k0 += mulBlockK {
			k1 := k0 + mulBlockK
			if k1 > k {
				k1 = k
			}
			i := r0 + gemmKernel(dst.Data[r0*n+j0:], n, a.Data[r0*k+k0:], 1, k,
				b.Data[k0*n+j0:], n, r1-r0, k1-k0, j1-j0)
			for ; i < r1; i++ {
				arow := a.Data[i*k : (i+1)*k]
				orow := dst.Data[i*n+j0 : i*n+j1]
				for kk := k0; kk < k1; kk++ {
					av := arow[kk]
					if av == 0 {
						continue
					}
					axpyInto(orow, b.Data[kk*n+j0:kk*n+j1], av)
				}
			}
		}
	}
}

// MulBTInto computes dst = a·bᵀ without allocating or materialising bᵀ.
// dst must be a.Rows×b.Rows and must not alias a or b. Element (i,j) is the
// dot product of row i of a and row j of b accumulated in ascending column
// order — exactly the order of a per-sample product b·a.Row(i), which is
// what makes the batch forward pass bit-identical to the per-sample path.
func MulBTInto(dst, a, b *Matrix) error {
	if a.Cols != b.Cols {
		return fmt.Errorf("%w: MulBTInto %dx%d by (%dx%d)ᵀ", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		return fmt.Errorf("%w: MulBTInto dst %dx%d, want %dx%d", ErrShape, dst.Rows, dst.Cols, a.Rows, b.Rows)
	}
	m, k, n := a.Rows, a.Cols, b.Rows
	if m == 0 || n == 0 {
		return nil
	}
	if w := parallelWorth(m, 2*int64(m)*int64(k)*int64(n)); w > 1 {
		fanOutRows(m, w, func(r0, r1 int) { mulBTRange(dst, a, b, r0, r1) })
	} else {
		mulBTRange(dst, a, b, 0, m)
	}
	return nil
}

// mulBTRange computes rows [r0, r1) of dst = a·bᵀ with a register-blocked
// 2×4 micro-kernel: two sample rows by four output columns per inner loop,
// so each row of b is streamed once per pair of samples and eight
// independent accumulator chains overlap instead of serialising on one FMA
// dependency. Every accumulator still sums its own (i,j) element in
// ascending k order, so each element stays bit-identical to a lone dot
// product.
func mulBTRange(dst, a, b *Matrix, r0, r1 int) {
	if mulBTRangeKernel(dst, a, b, r0, r1) {
		return
	}
	k, n := a.Cols, b.Rows
	// Slices are taken as data[base : base+k : base+k] so the prover sees
	// every operand with length exactly k and drops the bounds checks from
	// the fused inner loops.
	i := r0
	for ; i+2 <= r1; i += 2 {
		a0 := a.Data[i*k : i*k+k : i*k+k]
		a1 := a.Data[i*k+k : i*k+2*k : i*k+2*k]
		o0 := dst.Data[i*dst.Cols : i*dst.Cols+n]
		o1 := dst.Data[(i+1)*dst.Cols : (i+1)*dst.Cols+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			jb := j * k
			b0 := b.Data[jb : jb+k : jb+k]
			b1 := b.Data[jb+k : jb+2*k : jb+2*k]
			b2 := b.Data[jb+2*k : jb+3*k : jb+3*k]
			b3 := b.Data[jb+3*k : jb+4*k : jb+4*k]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for kk, av0 := range a0 {
				av1 := a1[kk]
				bv0, bv1, bv2, bv3 := b0[kk], b1[kk], b2[kk], b3[kk]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s02 += av0 * bv2
				s03 += av0 * bv3
				s10 += av1 * bv0
				s11 += av1 * bv1
				s12 += av1 * bv2
				s13 += av1 * bv3
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = s00, s01, s02, s03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = s10, s11, s12, s13
		}
		for ; j < n; j++ {
			brow := b.Data[j*k : j*k+k : j*k+k]
			var s0, s1 float64
			for kk, av0 := range a0 {
				s0 += av0 * brow[kk]
				s1 += a1[kk] * brow[kk]
			}
			o0[j], o1[j] = s0, s1
		}
	}
	for ; i < r1; i++ {
		arow := a.Data[i*k : i*k+k : i*k+k]
		orow := dst.Data[i*dst.Cols : i*dst.Cols+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			jb := j * k
			b0 := b.Data[jb : jb+k : jb+k]
			b1 := b.Data[jb+k : jb+2*k : jb+2*k]
			b2 := b.Data[jb+2*k : jb+3*k : jb+3*k]
			b3 := b.Data[jb+3*k : jb+4*k : jb+4*k]
			var s0, s1, s2, s3 float64
			for kk, av := range arow {
				s0 += av * b0[kk]
				s1 += av * b1[kk]
				s2 += av * b2[kk]
				s3 += av * b3[kk]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b.Data[j*k : j*k+k : j*k+k]
			var s float64
			for kk, av := range arow {
				s += av * brow[kk]
			}
			orow[j] = s
		}
	}
}

// MulTInto computes dst = aᵀ·b without allocating or materialising aᵀ.
// dst must be a.Cols×b.Cols and must not alias a or b.
func MulTInto(dst, a, b *Matrix) error {
	return mulT(dst, a, b, false)
}

// MulTAddInto computes dst += aᵀ·b — the accumulating transposed-multiply
// the gradient paths use: with dY (batch×out) and X (batch×in) it adds the
// minibatch weight gradient dYᵀ·X, summing samples in ascending batch order,
// exactly as a sequence of per-sample OuterAdd calls would.
func MulTAddInto(dst, a, b *Matrix) error {
	return mulT(dst, a, b, true)
}

func mulT(dst, a, b *Matrix, add bool) error {
	if a.Rows != b.Rows {
		return fmt.Errorf("%w: MulTInto (%dx%d)ᵀ by %dx%d", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		return fmt.Errorf("%w: MulTInto dst %dx%d, want %dx%d", ErrShape, dst.Rows, dst.Cols, a.Cols, b.Cols)
	}
	m, k, n := a.Cols, a.Rows, b.Cols
	if m == 0 || n == 0 {
		return nil
	}
	if w := parallelWorth(m, 2*int64(m)*int64(k)*int64(n)); w > 1 {
		fanOutRows(m, w, func(r0, r1 int) { mulTRange(dst, a, b, add, r0, r1) })
	} else {
		mulTRange(dst, a, b, add, 0, m)
	}
	return nil
}

// mulTRange computes dst rows [r0, r1) of aᵀ·b. Under avx2 gemmKernel takes
// the rows in blocks of 4 (aᵀ·b is its A·b with sa = a.Cols, ra = 1); the
// axpy loop takes the rest, and every row at the other levels. That loop
// runs the shared dimension (the rows of a and b) outermost and adds
// a[s,i]·b[s] to dst row i for every nonzero a[s,i], so every dst element
// accumulates samples in ascending order no matter how the rows are
// blocked — the reference the kernel matches bit for bit.
func mulTRange(dst, a, b *Matrix, add bool, r0, r1 int) {
	k, n := a.Rows, b.Cols
	if !add {
		for i := r0; i < r1; i++ {
			orow := dst.Data[i*n : (i+1)*n]
			for j := range orow {
				orow[j] = 0
			}
		}
	}
	r0 += gemmKernel(dst.Data[r0*n:], n, a.Data[r0:], a.Cols, 1, b.Data, n, r1-r0, k, n)
	if r0 == r1 {
		return
	}
	for s := 0; s < k; s++ {
		arow := a.Data[s*a.Cols : (s+1)*a.Cols]
		brow := b.Data[s*n : (s+1)*n]
		for i := r0; i < r1; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			axpyInto(dst.Data[i*n:(i+1)*n], brow, av)
		}
	}
}

// AddRowWise adds the vector v to every row of m in place (bias broadcast).
func (m *Matrix) AddRowWise(v []float64) error {
	if len(v) != m.Cols {
		return fmt.Errorf("%w: AddRowWise %dx%d with vector of length %d", ErrShape, m.Rows, m.Cols, len(v))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, bv := range v {
			row[j] += bv
		}
	}
	return nil
}

// SumColumnsInto accumulates the column sums of m into out (out[j] += Σ_i
// m[i,j]), the batch form of per-sample bias-gradient accumulation; rows add
// in ascending order.
func (m *Matrix) SumColumnsInto(out []float64) error {
	if len(out) != m.Cols {
		return fmt.Errorf("%w: SumColumnsInto %dx%d into vector of length %d", ErrShape, m.Rows, m.Cols, len(out))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			out[j] += v
		}
	}
	return nil
}

// Reshape resizes m to r×c in place, reusing the backing array when it has
// capacity and reallocating otherwise. The element values after a Reshape
// are unspecified; it exists so batch scratch buffers follow the batch size
// without churning the allocator.
func (m *Matrix) Reshape(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative Reshape %dx%d", r, c))
	}
	need := r * c
	if cap(m.Data) < need {
		m.Data = make([]float64, need)
	}
	m.Rows, m.Cols, m.Data = r, c, m.Data[:need]
	return m
}
