package rnn

import (
	"math"

	"repro/internal/mat"
	"repro/internal/nn"
)

// The scalar per-window trainer that TrainBatch replaced, kept as the
// reference the batched trainer and inference paths are pinned against bit
// for bit: one window at a time, one matrix-vector product per gate block
// per step, and per-step OuterAdd gradient accumulation.

// sigmoid is the logistic function, one math.Exp per call.
func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

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

// refStep advances l one timestep from (hPrev, cPrev) on input x, returning
// the new states plus the post-activation gates and tanh(c).
func refStep(l *LSTM, x, hPrev, cPrev []float64) (h, c, gates, tc []float64) {
	z := mulVec(l.Wx, x)
	zh := mulVec(l.Wh, hPrev)
	H := l.HiddenSize
	gates = make([]float64, 4*H)
	for i := range z {
		z[i] += zh[i] + l.B[i]
	}
	for i := 0; i < H; i++ {
		gates[i] = sigmoid(z[i])
		gates[H+i] = sigmoid(z[H+i])
		gates[2*H+i] = math.Tanh(z[2*H+i])
		gates[3*H+i] = sigmoid(z[3*H+i])
	}
	h = make([]float64, H)
	c = make([]float64, H)
	tc = make([]float64, H)
	for i := 0; i < H; i++ {
		c[i] = gates[H+i]*cPrev[i] + gates[i]*gates[2*H+i]
		tc[i] = math.Tanh(c[i])
		h[i] = gates[3*H+i] * tc[i]
	}
	return h, c, gates, tc
}

// refCache is what refBackward needs from a refForward: inputs, states
// (index 0 = initial), post-activation gates and tanh(c) per step.
type refCache struct {
	xs, hs, cs, gates, tanhC [][]float64
}

// refForward runs l over xs from (h0, c0) — nil means zeros — and returns
// every step's hidden state, the final states and the cache.
func refForward(l *LSTM, xs [][]float64, h0, c0 []float64) (hs [][]float64, hT, cT []float64, cache *refCache) {
	if h0 == nil {
		h0 = make([]float64, l.HiddenSize)
	}
	if c0 == nil {
		c0 = make([]float64, l.HiddenSize)
	}
	cache = &refCache{hs: [][]float64{h0}, cs: [][]float64{c0}}
	h, c := h0, c0
	for _, x := range xs {
		var gates, tc []float64
		h, c, gates, tc = refStep(l, x, h, c)
		hs = append(hs, h)
		cache.xs = append(cache.xs, x)
		cache.hs = append(cache.hs, h)
		cache.cs = append(cache.cs, c)
		cache.gates = append(cache.gates, gates)
		cache.tanhC = append(cache.tanhC, tc)
	}
	return hs, h, c, cache
}

// refBackward backpropagates through cache: dhs holds ∂L/∂h_t per step (nil
// means zero) and dhT/dcT the final-state gradients (nil means zero). It
// accumulates l's parameter gradients and returns the initial-state
// gradients.
func refBackward(l *LSTM, cache *refCache, dhs [][]float64, dhT, dcT []float64) (dh0, dc0 []float64) {
	H := l.HiddenSize
	dh := make([]float64, H)
	dc := make([]float64, H)
	copy(dh, dhT)
	copy(dc, dcT)
	dz := make([]float64, 4*H)
	for t := len(cache.xs) - 1; t >= 0; t-- {
		if dhs != nil {
			for i, g := range dhs[t] {
				dh[i] += g
			}
		}
		gates, tc, cPrev := cache.gates[t], cache.tanhC[t], cache.cs[t]
		for i := 0; i < H; i++ {
			ig, fg, gg, og := gates[i], gates[H+i], gates[2*H+i], gates[3*H+i]
			do := dh[i] * tc[i]
			dct := dc[i] + dh[i]*og*(1-tc[i]*tc[i])
			di := dct * gg
			df := dct * cPrev[i]
			dg := dct * ig
			dz[i] = di * ig * (1 - ig)
			dz[H+i] = df * fg * (1 - fg)
			dz[2*H+i] = dg * (1 - gg*gg)
			dz[3*H+i] = do * og * (1 - og)
			dc[i] = dct * fg
		}
		_ = l.gradWx.OuterAdd(dz, cache.xs[t])
		_ = l.gradWh.OuterAdd(dz, cache.hs[t])
		for i, g := range dz {
			l.gradB[i] += g
		}
		dh = mulVecT(l.Wh, dz)
	}
	return dh, dc
}

// refEncode runs the encoder over xs and returns the decoder's initial
// states (the directions' final states summed for a BiLSTM) plus the
// direction caches, forward first.
func refEncode(m *Seq2Seq, xs [][]float64) (h0, c0 []float64, caches []*refCache) {
	if m.BiEncoder == nil {
		_, h0, c0, cache := refForward(m.Encoder, xs, nil, nil)
		return h0, c0, []*refCache{cache}
	}
	rev := make([][]float64, len(xs))
	for i, x := range xs {
		rev[len(xs)-1-i] = x
	}
	_, hF, cF, fc := refForward(m.BiEncoder.Fwd, xs, nil, nil)
	_, hB, cB, bc := refForward(m.BiEncoder.Bwd, rev, nil, nil)
	h0 = make([]float64, len(hF))
	c0 = make([]float64, len(cF))
	for i := range h0 {
		h0[i] = hF[i] + hB[i]
		c0[i] = cF[i] + cB[i]
	}
	return h0, c0, []*refCache{fc, bc}
}

// refAccumulate runs one teacher-forced forward/backward pass over xs,
// adding into m's gradients, and returns the mean per-step loss.
func refAccumulate(m *Seq2Seq, xs [][]float64) float64 {
	T := len(xs)
	h0, c0, encCaches := refEncode(m, xs)
	decIn := make([][]float64, T)
	decIn[0] = make([]float64, m.InSize)
	copy(decIn[1:], xs)
	hs, _, _, decCache := refForward(m.Decoder, decIn, h0, c0)

	keep := 1 - m.DropRate
	dhs := make([][]float64, T)
	var total float64
	scale := 1 / float64(T)
	for t := 0; t < T; t++ {
		hDrop := mat.CloneVec(hs[t])
		var mask []float64
		if m.DropRate > 0 {
			mask = make([]float64, len(hDrop))
			for i := range hDrop {
				if m.rng.Float64() < keep {
					mask[i] = 1 / keep
					hDrop[i] /= keep
				} else {
					hDrop[i] = 0
				}
			}
		}
		y := mulVec(m.Wy, hDrop)
		for i := range y {
			y[i] += m.By[i]
		}
		l, dy, _ := nn.MSELoss(y, xs[t])
		total += l
		for i := range dy {
			dy[i] *= scale
		}
		_ = m.gradWy.OuterAdd(dy, hDrop)
		for i, g := range dy {
			m.gradBy[i] += g
		}
		dh := mulVecT(m.Wy, dy)
		if mask != nil {
			for i := range dh {
				dh[i] *= mask[i]
			}
		}
		dhs[t] = dh
	}

	dh0, dc0 := refBackward(m.Decoder, decCache, dhs, nil, nil)
	if m.BiEncoder != nil {
		refBackward(m.BiEncoder.Fwd, encCaches[0], nil, dh0, dc0)
		refBackward(m.BiEncoder.Bwd, encCaches[1], nil, dh0, dc0)
	} else {
		refBackward(m.Encoder, encCaches[0], nil, dh0, dc0)
	}
	return total * scale
}

// refTrainBatch is the scalar TrainBatch: accumulate window by window,
// average, step.
func refTrainBatch(m *Seq2Seq, batch [][][]float64, opt nn.Optimizer) (float64, error) {
	var total float64
	for _, xs := range batch {
		total += refAccumulate(m, xs)
	}
	inv := 1 / float64(len(batch))
	for _, p := range m.Params() {
		p.Grad.Scale(inv)
	}
	if err := opt.Step(m.Params()); err != nil {
		return 0, err
	}
	return total / float64(len(batch)), nil
}
