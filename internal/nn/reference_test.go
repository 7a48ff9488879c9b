package nn

import "repro/internal/mat"

// The per-sample forward and backward every layer carried beside its batch
// forms, written out as scalar loops and kept as the reference the batch
// engine is pinned against: one matrix-vector product per dense layer,
// accumulating in ascending column order, and one element at a time through
// activations.

// mulVec returns m·x, accumulating each row in ascending column order.
func mulVec(m *mat.Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		var s float64
		for j, v := range m.Row(i) {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// mulVecT returns mᵀ·x, accumulating rows in ascending order and skipping
// zero coefficients.
func mulVecT(m *mat.Matrix, x []float64) []float64 {
	out := make([]float64, m.Cols)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		for j, v := range m.Row(i) {
			out[j] += xv * v
		}
	}
	return out
}

// refForward runs net on the single sample x one layer at a time and
// returns every layer's input followed by the network's output.
func refForward(net *Sequential, x []float64) [][]float64 {
	acts := [][]float64{x}
	for _, l := range net.Layers {
		in := acts[len(acts)-1]
		var out []float64
		switch l := l.(type) {
		case *Dense:
			out = mulVec(l.W, in)
			for i, b := range l.B {
				out[i] += b
			}
		case *Activation:
			out = make([]float64, len(in))
			for i, v := range in {
				out[i] = l.Fn.Apply(v)
			}
		default:
			panic("nn: no reference for this layer")
		}
		acts = append(acts, out)
	}
	return acts
}

// refBackward propagates g = ∂L/∂output back through net over the
// activations refForward returned, accumulating parameter gradients, and
// returns ∂L/∂input.
func refBackward(net *Sequential, acts [][]float64, g []float64) []float64 {
	for i := len(net.Layers) - 1; i >= 0; i-- {
		in, out := acts[i], acts[i+1]
		switch l := net.Layers[i].(type) {
		case *Dense:
			_ = l.gradW.OuterAdd(g, in)
			for j, v := range g {
				l.gradB[j] += v
			}
			g = mulVecT(l.W, g)
		case *Activation:
			gin := make([]float64, len(g))
			for j, v := range g {
				gin[j] = v * l.Fn.Deriv(in[j], out[j])
			}
			g = gin
		default:
			panic("nn: no reference for this layer")
		}
	}
	return g
}
