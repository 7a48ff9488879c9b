package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// Optimizer updates parameters from their accumulated gradients and clears
// the gradients. Implementations keep per-parameter state, so an Optimizer
// must be used with one fixed parameter set (rebinding happens lazily on
// first Step).
//
// Every Step makes two passes over the gradients: gradPrologue adds weight
// decay and sums the squares for clipping, and applyTail scales, updates
// and zeroes chunk by chunk. The result is bit-identical to separate
// decay, norm, scale, update and zero passes.
type Optimizer interface {
	// Step applies one update to params from their Grad fields and zeroes
	// the gradients.
	Step(params []Param) error
}

// gradPrologue is the first of an optimiser step's two passes over the
// gradients. Per tensor it adds the L2-regularisation term λ·w to the
// gradients of parameters marked WeightDecay (the Keras kernel_regularizer
// semantics the paper uses with λ = 1e-4) and, when clipping is on, sums
// the squares of the decayed gradients. It returns the scale that brings
// the global L2 norm down to maxNorm, or 1 when the norm is within it or
// maxNorm is zero (clipping off). Gradient clipping keeps BPTT through long
// sequences stable.
//
// The sum of squares is one scalar chain over params in order and elements
// in ascending order, so the norm has the bits of a plain two-loop sum.
// The decay product is rounded before the add (the explicit conversion
// forbids a fused multiply-add), as the vectorised axpy kernel rounds it.
func gradPrologue(params []Param, lambda, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		g := p.Grad.Data
		switch {
		case lambda != 0 && p.WeightDecay && maxNorm > 0:
			w := p.Value.Data[:len(g)]
			for j := range g {
				g[j] += float64(lambda * w[j])
				sq += g[j] * g[j]
			}
		case lambda != 0 && p.WeightDecay:
			w := p.Value.Data[:len(g)]
			for j := range g {
				g[j] += float64(lambda * w[j])
			}
		case maxNorm > 0:
			for _, v := range g {
				sq += v * v
			}
		}
	}
	if maxNorm <= 0 {
		return 1
	}
	norm := math.Sqrt(sq)
	if norm <= maxNorm {
		return 1
	}
	return maxNorm / norm
}

const (
	// tailChunk is the target span of one chunk of an optimiser step's
	// element-wise tail: small enough that a chunk's gradients, weights and
	// optimiser state stay in L2 from the clip scale through the update to
	// the zeroing of the gradients.
	tailChunk = 8192
	// tailFanOut is the tensor size from which the tail's chunks run over
	// the worker pool. Every element's update is independent of the others,
	// so the split cannot move a bit.
	tailFanOut = 1 << 16
)

// tensorUpdate is the element-wise half of one optimiser's step: update
// applies the step to elements [lo, hi) of params[i] from gradients that
// already carry weight decay and the clip scale.
type tensorUpdate interface {
	update(i int, p Param, lo, hi int)
}

// applyTail is the second pass of an optimiser step. Per tensor, chunk by
// chunk, it multiplies the gradients by scale (when clipping fired), runs
// u's update and zeroes the gradients; then it invalidates the tensor's
// packed panels. Tensors of at least tailFanOut elements fan their chunks
// out over the worker pool.
func applyTail(params []Param, scale float64, u tensorUpdate) {
	for i, p := range params {
		n := len(p.Grad.Data)
		// ⌈n/tailChunk⌉ near-equal chunks, their boundaries on multiples
		// of 4 so that every chunk but the last runs whole vector lanes.
		chunks := max(1, (n+tailChunk-1)/tailChunk)
		size := ((n+chunks-1)/chunks + 3) &^ 3
		if n >= tailFanOut {
			fanOutTail(p, i, n, size, scale, u)
		} else {
			for lo := 0; lo < n; lo += size {
				tailRange(p, i, lo, min(lo+size, n), scale, u)
			}
		}
		p.invalidate()
	}
}

// fanOutTail runs the chunks of one large tensor over the worker pool. It
// is a function of its own so that only large tensors pay for the closure.
func fanOutTail(p Param, i, n, size int, scale float64, u tensorUpdate) {
	_ = parallel.ForEach(0, (n+size-1)/size, func(c int) error {
		lo := c * size
		tailRange(p, i, lo, min(lo+size, n), scale, u)
		return nil
	})
}

// tailRange is one chunk of applyTail: scale, update, zero.
func tailRange(p Param, i, lo, hi int, scale float64, u tensorUpdate) {
	g := p.Grad.Data[lo:hi]
	if scale != 1 {
		for j := range g {
			g[j] *= scale
		}
	}
	u.update(i, p, lo, hi)
	clear(g)
}

// flushTiny snaps magnitudes below 1e-150 to zero. Weight decay walks dead
// weights (e.g. behind dead ReLU units) through ever-smaller values whose
// squares are subnormal floats; subnormal arithmetic is orders of magnitude
// slower on common CPUs, so optimiser state must never linger there. The
// threshold and semantics live in mat so the SIMD Adam kernel and the
// scalar optimisers share one definition.
func flushTiny(v float64) float64 { return mat.FlushTiny(v) }

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	ClipNorm    float64

	vel []*mat.Matrix
}

// NewSGD returns an SGD optimiser with the given learning rate.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Step implements Optimizer.
func (o *SGD) Step(params []Param) error {
	if o.LR <= 0 {
		return fmt.Errorf("nn: SGD learning rate %g must be positive", o.LR)
	}
	if o.Momentum != 0 && o.vel == nil {
		o.vel = make([]*mat.Matrix, len(params))
		for i, p := range params {
			o.vel[i] = mat.New(p.Grad.Rows, p.Grad.Cols)
		}
	}
	if o.vel != nil && len(o.vel) != len(params) {
		return fmt.Errorf("nn: SGD bound to %d params, got %d", len(o.vel), len(params))
	}
	applyTail(params, gradPrologue(params, o.WeightDecay, o.ClipNorm), o)
	return nil
}

// update implements tensorUpdate.
func (o *SGD) update(i int, p Param, lo, hi int) {
	g := p.Grad.Data[lo:hi]
	w := p.Value.Data[lo:hi]
	if o.Momentum != 0 {
		v := o.vel[i].Data[lo:hi]
		for j, gj := range g {
			v[j] = o.Momentum*v[j] - o.LR*gj
			w[j] += v[j]
		}
		return
	}
	for j, gj := range g {
		w[j] -= o.LR * gj
	}
}

// RMSProp implements the RMSProp optimiser the paper trains its seq2seq
// models with: cache = ρ·cache + (1−ρ)·g²; w −= lr·g/(√cache+ε).
type RMSProp struct {
	LR          float64
	Rho         float64
	Eps         float64
	WeightDecay float64
	ClipNorm    float64

	cache []*mat.Matrix
}

// NewRMSProp returns an RMSProp optimiser with Keras-default ρ=0.9, ε=1e-7.
func NewRMSProp(lr float64) *RMSProp {
	return &RMSProp{LR: lr, Rho: 0.9, Eps: 1e-7}
}

// Step implements Optimizer.
func (o *RMSProp) Step(params []Param) error {
	if o.LR <= 0 {
		return fmt.Errorf("nn: RMSProp learning rate %g must be positive", o.LR)
	}
	if o.cache == nil {
		o.cache = make([]*mat.Matrix, len(params))
		for i, p := range params {
			o.cache[i] = mat.New(p.Grad.Rows, p.Grad.Cols)
		}
	}
	if len(o.cache) != len(params) {
		return fmt.Errorf("nn: RMSProp bound to %d params, got %d", len(o.cache), len(params))
	}
	applyTail(params, gradPrologue(params, o.WeightDecay, o.ClipNorm), o)
	return nil
}

// update implements tensorUpdate.
func (o *RMSProp) update(i int, p Param, lo, hi int) {
	g := p.Grad.Data[lo:hi]
	w := p.Value.Data[lo:hi]
	c := o.cache[i].Data[lo:hi]
	for j, gj := range g {
		c[j] = flushTiny(o.Rho*c[j] + (1-o.Rho)*gj*gj)
		w[j] = flushTiny(w[j] - o.LR*gj/(math.Sqrt(c[j])+o.Eps))
	}
}

// Adam implements the Adam optimiser (used for the policy network, where
// its per-parameter step sizes speed up REINFORCE convergence).
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64
	ClipNorm    float64

	m, v   []*mat.Matrix
	t      int
	c1, c2 float64 // bias-correction denominators of the current step
}

// NewAdam returns an Adam optimiser with the standard β₁=0.9, β₂=0.999,
// ε=1e-8 defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step implements Optimizer.
func (o *Adam) Step(params []Param) error {
	if o.LR <= 0 {
		return fmt.Errorf("nn: Adam learning rate %g must be positive", o.LR)
	}
	if o.m == nil {
		o.m = make([]*mat.Matrix, len(params))
		o.v = make([]*mat.Matrix, len(params))
		for i, p := range params {
			o.m[i] = mat.New(p.Grad.Rows, p.Grad.Cols)
			o.v[i] = mat.New(p.Grad.Rows, p.Grad.Cols)
		}
	}
	if len(o.m) != len(params) {
		return fmt.Errorf("nn: Adam bound to %d params, got %d", len(o.m), len(params))
	}
	for i, p := range params {
		if n := len(p.Grad.Data); len(p.Value.Data) != n || len(o.m[i].Data) != n {
			return fmt.Errorf("%w: Adam param %d has %d values, %d gradients, %d moments",
				mat.ErrShape, i, len(p.Value.Data), n, len(o.m[i].Data))
		}
	}
	o.t++
	o.c1 = 1 - math.Pow(o.Beta1, float64(o.t))
	o.c2 = 1 - math.Pow(o.Beta2, float64(o.t))
	applyTail(params, gradPrologue(params, o.WeightDecay, o.ClipNorm), o)
	return nil
}

// update runs mat.AdamUpdate, which dispatches to the AVX2 kernel when
// available; every dispatch level is bit-identical to the scalar reference
// loop. Step checked the lengths, so the error is unreachable.
func (o *Adam) update(i int, p Param, lo, hi int) {
	_ = mat.AdamUpdate(p.Value.Data[lo:hi], p.Grad.Data[lo:hi], o.m[i].Data[lo:hi], o.v[i].Data[lo:hi],
		o.Beta1, o.Beta2, o.c1, o.c2, o.LR, o.Eps)
}
