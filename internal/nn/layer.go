// Package nn is a from-scratch feed-forward neural-network library built on
// internal/mat. It provides the dense layers, activations, optimisers, loss
// functions, serialisation and FP16 quantisation needed to reproduce the
// paper's autoencoder anomaly-detection models and the policy network,
// replacing the TensorFlow/Keras stack the authors used.
//
// The library is batch-only: every layer consumes a batch of samples as a
// *mat.Matrix with one sample per row and runs on the blocked matrix-matrix
// kernels, so minibatch training and vectorised inference amortise each
// weight matrix over the whole batch. A single sample is a batch of one.
// Because the batch kernels accumulate every row in the order of a scalar
// matrix-vector product, a batch of B rows produces bit-identical outputs
// to B batches of one.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
)

// Param is one trainable tensor of a layer, paired with its gradient
// accumulator. WeightDecay marks parameters that participate in L2 ("kernel")
// regularisation — weights yes, biases no, matching Keras's kernel_regularizer.
//
// Cache, when non-nil, is the layer's packed-panel cache for this tensor:
// every code path that rewrites Value (optimiser steps, snapshot restore,
// quantisation) must call Cache.Invalidate() afterwards so inference never
// consumes stale panels. Layers expose it only for weight matrices consumed
// through mat.MulBTCachedInto; biases and non-matmul parameters leave it nil.
type Param struct {
	Name        string
	Value       *mat.Matrix
	Grad        *mat.Matrix
	WeightDecay bool
	Cache       *mat.PanelCache
}

// invalidate drops the parameter's packed panels, if it has any. Optimisers
// call it after every value update.
func (p Param) invalidate() {
	if p.Cache != nil {
		p.Cache.Invalidate()
	}
}

// Layer is one differentiable stage of a network. Its methods consume one
// sample per row of a *mat.Matrix and come in two flavours with different
// concurrency contracts:
//
//   - ApplyBatch is the stateless inference form: it computes the layer's
//     output into caller-owned dst, reading only the layer's immutable
//     parameters. Any number of goroutines may call ApplyBatch on
//     a shared layer concurrently — this is what keeps concurrent detection
//     (Precompute workers, transport servers, cluster devices) safe.
//   - ForwardBatch/BackwardBatch are the stateful training forms: the layer
//     caches whatever BackwardBatch needs in layer-owned scratch and reuses
//     its scratch across calls (the steady-state training step is
//     allocation-free). A model must not run the stateful forms from more
//     than one goroutine at a time, and a BackwardBatch call must be
//     preceded by a ForwardBatch call. Matrices returned by the stateful
//     forms are layer-owned scratch, valid until that layer's next call.
type Layer interface {
	ApplyBatch(dst, x *mat.Matrix) error
	ForwardBatch(x *mat.Matrix) (*mat.Matrix, error)
	BackwardBatch(gradOut *mat.Matrix) (*mat.Matrix, error)
	Params() []Param
	// OutSize reports the layer's output width for an input of width in,
	// or an error if the layer cannot accept that width.
	OutSize(in int) (int, error)
}

// rowView wraps a vector as a 1×n matrix sharing storage. It serves two
// roles: the batch-of-1 bridge of Sequential.Forward, and the uniform
// weights-and-biases view the optimisers consume via Params.
func rowView(x []float64) *mat.Matrix {
	return &mat.Matrix{Rows: 1, Cols: len(x), Data: x}
}

// Dense is a fully connected layer: y = W·x + b with W ∈ ℝ^{out×in}.
// The batch form computes Y = X·Wᵀ + b over one sample per row.
type Dense struct {
	W *mat.Matrix
	B []float64

	gradW *mat.Matrix
	gradB []float64

	lastX  mat.Matrix // cached training input, batch×in
	outB   mat.Matrix // forward scratch, batch×out
	gradIn mat.Matrix // backward scratch, batch×in
	haveX  bool

	// cache holds W packed into panels for the active kernel; it is
	// invalidated through Params().Cache whenever W changes, so
	// steady-state inference packs W exactly once.
	cache mat.PanelCache
}

// NewDense creates a Dense layer with Glorot-uniform initialised weights and
// zero biases, drawing randomness from rng.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid Dense shape %d->%d", in, out))
	}
	d := &Dense{
		W:     mat.New(out, in),
		B:     make([]float64, out),
		gradW: mat.New(out, in),
		gradB: make([]float64, out),
	}
	GlorotUniform(d.W, rng)
	return d
}

// ApplyBatch implements Layer: dst = X·Wᵀ + b into caller-owned dst. W is
// consumed through the layer's packed-panel cache, so steady-state
// inference packs W once and reuses the panels across batches; the cache
// is lock-free (atomic pointer swaps, concurrent first calls may pack
// twice) and the method remains safe for concurrent use.
func (d *Dense) ApplyBatch(dst, x *mat.Matrix) error {
	return d.apply(dst, x, &d.cache)
}

// apply computes dst = X·Wᵀ + b, consuming W through c (nil: straight from
// W, neither reading nor filling the panel cache).
func (d *Dense) apply(dst, x *mat.Matrix, c *mat.PanelCache) error {
	if x.Cols != d.W.Cols {
		return fmt.Errorf("%w: dense forward input width %d, want %d", mat.ErrShape, x.Cols, d.W.Cols)
	}
	dst.Reshape(x.Rows, d.W.Rows)
	if err := mat.MulBTCachedInto(dst, x, d.W, c); err != nil {
		return fmt.Errorf("dense forward: %w", err)
	}
	return dst.AddRowWise(d.B)
}

// ForwardBatch implements Layer: Y = X·Wᵀ + b, one sample per row. A
// batch of two or more rows goes through the packed-panel cache like
// ApplyBatch. A lone row multiplies W directly: in per-sample training
// every optimiser step invalidates the panels, so packing W for one row
// would copy every weight to use it once. Both products are bit-identical.
func (d *Dense) ForwardBatch(x *mat.Matrix) (*mat.Matrix, error) {
	c := &d.cache
	if x.Rows == 1 {
		c = nil
	}
	y := &d.outB
	if err := d.apply(y, x, c); err != nil {
		return nil, err
	}
	d.lastX.Reshape(x.Rows, x.Cols)
	copy(d.lastX.Data, x.Data)
	d.haveX = true
	return y, nil
}

// BackwardBatch implements Layer: accumulates dW += dYᵀ·X and db += Σ rows,
// and returns dX = dY·W.
func (d *Dense) BackwardBatch(gradOut *mat.Matrix) (*mat.Matrix, error) {
	if !d.haveX {
		return nil, fmt.Errorf("nn: Dense.BackwardBatch before ForwardBatch")
	}
	if gradOut.Cols != d.W.Rows || gradOut.Rows != d.lastX.Rows {
		return nil, fmt.Errorf("%w: dense backward grad %dx%d, want %dx%d",
			mat.ErrShape, gradOut.Rows, gradOut.Cols, d.lastX.Rows, d.W.Rows)
	}
	if err := mat.MulTAddInto(d.gradW, gradOut, &d.lastX); err != nil {
		return nil, err
	}
	if err := gradOut.SumColumnsInto(d.gradB); err != nil {
		return nil, err
	}
	gin := d.gradIn.Reshape(gradOut.Rows, d.W.Cols)
	if err := mat.MulInto(gin, gradOut, d.W); err != nil {
		return nil, err
	}
	return gin, nil
}

// Params implements Layer.
func (d *Dense) Params() []Param {
	return []Param{
		{Name: "W", Value: d.W, Grad: d.gradW, WeightDecay: true, Cache: &d.cache},
		{Name: "b", Value: rowView(d.B), Grad: rowView(d.gradB)},
	}
}

// OutSize implements Layer.
func (d *Dense) OutSize(in int) (int, error) {
	if in != d.W.Cols {
		return 0, fmt.Errorf("%w: Dense expects input %d, got %d", mat.ErrShape, d.W.Cols, in)
	}
	return d.W.Rows, nil
}

// Activation applies an element-wise nonlinearity.
type Activation struct {
	Fn ActFunc

	lastIn  mat.Matrix
	lastOut mat.Matrix
	outB    mat.Matrix
	gradIn  mat.Matrix
	haveIn  bool
}

// ActFunc identifies an element-wise activation function.
type ActFunc int

// Supported activation functions.
const (
	ActLinear ActFunc = iota + 1
	ActReLU
	ActSigmoid
	ActTanh
)

// String implements fmt.Stringer for diagnostics.
func (f ActFunc) String() string {
	switch f {
	case ActLinear:
		return "linear"
	case ActReLU:
		return "relu"
	case ActSigmoid:
		return "sigmoid"
	case ActTanh:
		return "tanh"
	default:
		return fmt.Sprintf("ActFunc(%d)", int(f))
	}
}

// Apply evaluates the activation at v.
func (f ActFunc) Apply(v float64) float64 {
	switch f {
	case ActReLU:
		if v < 0 {
			return 0
		}
		return v
	case ActSigmoid:
		return 1 / (1 + math.Exp(-v))
	case ActTanh:
		return math.Tanh(v)
	default:
		return v
	}
}

// Deriv evaluates the derivative of the activation given the pre-activation
// input in and the already-computed output out (whichever is cheaper).
func (f ActFunc) Deriv(in, out float64) float64 {
	switch f {
	case ActReLU:
		if in > 0 {
			return 1
		}
		return 0
	case ActSigmoid:
		return out * (1 - out)
	case ActTanh:
		return 1 - out*out
	default:
		return 1
	}
}

// NewActivation returns an activation layer for fn.
func NewActivation(fn ActFunc) *Activation { return &Activation{Fn: fn} }

// ApplyBatch implements Layer, touching no layer state.
func (a *Activation) ApplyBatch(dst, x *mat.Matrix) error {
	dst.Reshape(x.Rows, x.Cols)
	for i, v := range x.Data {
		dst.Data[i] = a.Fn.Apply(v)
	}
	return nil
}

// ForwardBatch implements Layer.
func (a *Activation) ForwardBatch(x *mat.Matrix) (*mat.Matrix, error) {
	out := a.outB.Reshape(x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = a.Fn.Apply(v)
	}
	a.lastIn.Reshape(x.Rows, x.Cols)
	copy(a.lastIn.Data, x.Data)
	a.lastOut.Reshape(x.Rows, x.Cols)
	copy(a.lastOut.Data, out.Data)
	a.haveIn = true
	return out, nil
}

// BackwardBatch implements Layer.
func (a *Activation) BackwardBatch(gradOut *mat.Matrix) (*mat.Matrix, error) {
	if !a.haveIn {
		return nil, fmt.Errorf("nn: Activation.BackwardBatch before ForwardBatch")
	}
	if gradOut.Rows != a.lastIn.Rows || gradOut.Cols != a.lastIn.Cols {
		return nil, fmt.Errorf("%w: activation backward grad %dx%d, want %dx%d",
			mat.ErrShape, gradOut.Rows, gradOut.Cols, a.lastIn.Rows, a.lastIn.Cols)
	}
	gin := a.gradIn.Reshape(gradOut.Rows, gradOut.Cols)
	for i, g := range gradOut.Data {
		gin.Data[i] = g * a.Fn.Deriv(a.lastIn.Data[i], a.lastOut.Data[i])
	}
	return gin, nil
}

// Params implements Layer. Activations are parameter-free.
func (a *Activation) Params() []Param { return nil }

// OutSize implements Layer.
func (a *Activation) OutSize(in int) (int, error) { return in, nil }
