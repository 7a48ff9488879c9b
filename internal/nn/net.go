package nn

import (
	"fmt"

	"repro/internal/mat"
)

// Sequential chains layers into a feed-forward network.
type Sequential struct {
	Layers []Layer
}

// NewSequential returns a network over the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward runs the network on the single sample x as a batch of one and
// returns a slice the caller owns: InferBatch when train is false (safe for
// concurrent use), ForwardBatch when it is true.
func (n *Sequential) Forward(x []float64, train bool) ([]float64, error) {
	xm := rowView(x)
	if train {
		y, err := n.ForwardBatch(xm)
		if err != nil {
			return nil, err
		}
		return mat.CloneVec(y.Data), nil
	}
	var ws BatchScratch
	y, err := n.InferBatch(&ws, xm)
	if err != nil {
		return nil, err
	}
	return y.Data, nil
}

// BatchScratch is the caller-owned workspace of InferBatch: two ping-pong
// activation buffers that grow to the network's widest layer and are reused
// across calls. Each concurrent goroutine brings its own BatchScratch, which
// is what makes shared-model batch inference both data-race free and
// allocation-free in steady state.
type BatchScratch struct {
	a, b mat.Matrix
}

// InferBatch runs inference on a batch, one sample per row, using only the
// network's immutable parameters and the caller's scratch — safe for any
// number of goroutines sharing the network, each with its own scratch. The
// returned matrix aliases ws and is valid until the next InferBatch call
// with the same scratch. Row i of the result is bit-identical to
// InferBatch on row i alone.
func (n *Sequential) InferBatch(ws *BatchScratch, x *mat.Matrix) (*mat.Matrix, error) {
	cur := x
	bufs := [2]*mat.Matrix{&ws.a, &ws.b}
	for i, l := range n.Layers {
		dst := bufs[i%2]
		if err := l.ApplyBatch(dst, cur); err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
		cur = dst
	}
	return cur, nil
}

// ForwardBatch runs the network on a batch, one sample per row, through the
// stateful training path (layer caches and scratch are reused; not safe for
// concurrent use on one model — see Layer). The returned matrix is scratch
// owned by the final layer (valid until its next forward call); copy it to
// retain it. Row i of the result is bit-identical to InferBatch on row i.
func (n *Sequential) ForwardBatch(x *mat.Matrix) (*mat.Matrix, error) {
	cur := x
	for i, l := range n.Layers {
		var err error
		cur, err = l.ForwardBatch(cur)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return cur, nil
}

// BackwardBatch propagates a batch of output gradients (same row layout as
// ForwardBatch) back through the network, accumulating parameter gradients
// summed over the batch, and returns ∂L/∂input. The returned matrix is
// scratch owned by the first layer.
func (n *Sequential) BackwardBatch(gradOut *mat.Matrix) (*mat.Matrix, error) {
	cur := gradOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		var err error
		cur, err = n.Layers[i].BackwardBatch(cur)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return cur, nil
}

// Params returns every trainable parameter in layer order.
func (n *Sequential) Params() []Param {
	var ps []Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total number of scalar trainable parameters
// (weights and biases), the paper's "#Parameters" metric.
func (n *Sequential) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Value.Data)
	}
	return total
}

// ZeroGrads clears all accumulated gradients.
func (n *Sequential) ZeroGrads() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// OutSize reports the output width for an input of width in, validating
// layer-to-layer shape compatibility.
func (n *Sequential) OutSize(in int) (int, error) {
	cur := in
	for i, l := range n.Layers {
		var err error
		cur, err = l.OutSize(cur)
		if err != nil {
			return 0, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return cur, nil
}

// MSELoss returns the mean squared error ½·Σ(pred−target)²/n and its
// gradient with respect to pred. The ½ factor keeps the gradient simply
// (pred−target)/n.
func MSELoss(pred, target []float64) (float64, []float64, error) {
	if len(pred) != len(target) {
		return 0, nil, fmt.Errorf("%w: MSE pred len %d, target len %d", mat.ErrShape, len(pred), len(target))
	}
	n := float64(len(pred))
	grad := make([]float64, len(pred))
	var loss float64
	for i, p := range pred {
		d := p - target[i]
		loss += d * d
		grad[i] = d / n
	}
	return loss / (2 * n), grad, nil
}

// MSELossBatch returns the minibatch MSE loss — the mean over rows of the
// per-sample loss ½·Σ(pred−target)²/n — and its gradient with respect to
// pred, (pred−target)/(n·B), written into grad (reshaped to pred's shape).
// Dividing the gradient by the batch size makes one optimiser step on a
// batch of B samples equivalent to averaging B per-sample gradients, and at
// B = 1 the loss and gradient are bit-identical to MSELoss.
func MSELossBatch(pred, target, grad *mat.Matrix) (float64, error) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		return 0, fmt.Errorf("%w: MSE pred %dx%d, target %dx%d", mat.ErrShape, pred.Rows, pred.Cols, target.Rows, target.Cols)
	}
	if pred.Rows == 0 || pred.Cols == 0 {
		return 0, fmt.Errorf("%w: MSE on empty %dx%d batch", mat.ErrShape, pred.Rows, pred.Cols)
	}
	grad.Reshape(pred.Rows, pred.Cols)
	n := float64(pred.Cols)
	denom := n * float64(pred.Rows)
	var total float64
	for r := 0; r < pred.Rows; r++ {
		prow := pred.Row(r)
		trow := target.Row(r)
		grow := grad.Row(r)
		var loss float64
		for i, p := range prow {
			d := p - trow[i]
			loss += d * d
			grow[i] = d / denom
		}
		total += loss / (2 * n)
	}
	return total / float64(pred.Rows), nil
}

// FlopsDense estimates multiply-accumulate FLOPs of a forward pass through
// the network's dense layers for one input vector; used by the HEC device
// compute model to derive execution times.
func (n *Sequential) FlopsDense() int64 {
	var f int64
	for _, l := range n.Layers {
		if d, ok := l.(*Dense); ok {
			f += 2 * int64(d.W.Rows) * int64(d.W.Cols)
		}
	}
	return f
}
