package rnn

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/nn"
)

// Batched teacher-forced training.
//
// TrainBatch runs each run of consecutive equal-length windows of a
// minibatch in lockstep through the batched kernels. Every LSTM direction's
// input products X·Wxᵀ are one (B·T)×I product, each step is one B×H·Whᵀ
// product, and the head is one product over all B·T rows. Backward, each
// weight gradient is one MulTAddInto over rows stacked in the order
// per-window BPTT accumulated them. The kernels accumulate in per-sample
// order (see mat), so the trained weights are bit-identical to training one
// window at a time; the tests pin this against that scalar trainer.

// lstmPass is one LSTM direction's training pass over a lockstep run of B
// windows of T steps. Its N = B·T-row slabs are stacked window-major with t
// descending — row (w, t) is w·T + T−1−t — which is the order per-window
// BPTT adds gradients in, so each weight gradient is a single MulTAddInto.
type lstmPass struct {
	B, T int

	x  mat.Matrix // N×I inputs, written through input
	z  mat.Matrix // N×4H gate pre-activations, overwritten by the activations
	tc mat.Matrix // N×H tanh(c_t)
	cp mat.Matrix // N×H c_{t−1}
	hp mat.Matrix // N×H h_{t−1}
	dz mat.Matrix // N×4H ∂L/∂z

	// st carries h and c through forward: initial states in (zero after
	// reset), final states out. dh and dc carry ∂L/∂h and ∂L/∂c through
	// backward the same way; dzt is one step's ∂L/∂z.
	st     StepState
	dh, dc mat.Matrix
	dzt    mat.Matrix
}

// reset sizes the pass for B windows of T steps through l, zeroing the
// initial states and the incoming state gradients.
func (p *lstmPass) reset(l *LSTM, b, t int) {
	n, h := b*t, l.HiddenSize
	p.B, p.T = b, t
	p.x.Reshape(n, l.InSize)
	p.z.Reshape(n, 4*h)
	p.tc.Reshape(n, h)
	p.cp.Reshape(n, h)
	p.hp.Reshape(n, h)
	p.dz.Reshape(n, 4*h)
	p.st.Reset(b, h)
	p.dh.Reshape(b, h).Zero()
	p.dc.Reshape(b, h).Zero()
	p.dzt.Reshape(b, 4*h)
}

// row is the slab row of window w's step t.
func (p *lstmPass) row(w, t int) int { return w*p.T + p.T - 1 - t }

// input is the slab row the caller writes window w's step-t input into.
func (p *lstmPass) input(w, t int) []float64 { return p.x.Row(p.row(w, t)) }

// load resets the pass for a run of equal-length windows through l and
// writes their frames as its inputs — in reverse time order when reverse is
// set, as a BiLSTM's backward direction consumes them.
func (p *lstmPass) load(l *LSTM, windows [][][]float64, reverse bool) {
	T := len(windows[0])
	p.reset(l, len(windows), T)
	for w, xs := range windows {
		for t := range xs {
			src := t
			if reverse {
				src = T - 1 - t
			}
			copy(p.input(w, t), xs[src])
		}
	}
}

// forward runs l over the pass's inputs from the states in p.st, caching
// what backward needs and leaving the final states in p.st. When hs is
// non-nil, window w's h_t is written to its row w·T + t.
func (l *LSTM) forward(p *lstmPass, hs *mat.Matrix) error {
	H := l.HiddenSize
	if err := mat.MulBTCachedInto(&p.z, &p.x, l.Wx, &l.cacheWx); err != nil {
		return fmt.Errorf("lstm train forward: %w", err)
	}
	zh := p.st.zh.Reshape(p.B, 4*H)
	for t := 0; t < p.T; t++ {
		if err := mat.MulBTCachedInto(zh, &p.st.H, l.Wh, &l.cacheWh); err != nil {
			return fmt.Errorf("lstm train forward: %w", err)
		}
		for w := 0; w < p.B; w++ {
			r := p.row(w, t)
			hr, cr := p.st.H.Row(w), p.st.C.Row(w)
			copy(p.hp.Row(r), hr)
			copy(p.cp.Row(r), cr)
			l.cell(p.z.Row(r), zh.Row(w), cr, hr, p.tc.Row(r))
			if hs != nil {
				copy(hs.Row(w*p.T+t), hr)
			}
		}
	}
	return nil
}

// backward backpropagates through the pass's cached forward, starting from
// the final-state gradients in p.dh and p.dc and adding row w·T + t of dhs
// (when non-nil) into window w's ∂L/∂h_t. It accumulates l's parameter
// gradients and leaves ∂L/∂h₀ and ∂L/∂c₀ in p.dh and p.dc. ∂L/∂x is not
// formed: nothing reads it.
func (l *LSTM) backward(p *lstmPass, dhs *mat.Matrix) error {
	H := l.HiddenSize
	for t := p.T - 1; t >= 0; t-- {
		for w := 0; w < p.B; w++ {
			r := p.row(w, t)
			dh, dc, dz := p.dh.Row(w), p.dc.Row(w), p.dzt.Row(w)
			if dhs != nil {
				for i, g := range dhs.Row(w*p.T + t) {
					dh[i] += g
				}
			}
			gates, tc, cPrev := p.z.Row(r), p.tc.Row(r), p.cp.Row(r)
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
				dc[i] = dct * fg // becomes dc_{t-1}
			}
			copy(p.dz.Row(r), dz)
		}
		if err := mat.MulInto(&p.dh, &p.dzt, l.Wh); err != nil { // becomes dh_{t-1}
			return fmt.Errorf("lstm train backward: %w", err)
		}
	}
	if err := mat.MulTAddInto(l.gradWx, &p.dz, &p.x); err != nil {
		return fmt.Errorf("lstm train backward: %w", err)
	}
	if err := mat.MulTAddInto(l.gradWh, &p.dz, &p.hp); err != nil {
		return fmt.Errorf("lstm train backward: %w", err)
	}
	return p.dz.SumColumnsInto(l.gradB)
}

// trainScratch is the model-owned workspace of TrainBatch, reused across
// minibatches.
type trainScratch struct {
	// enc is the encoder's (forward) direction, bwd the BiLSTM's reverse one.
	enc, bwd, dec lstmPass
	// Head slabs, row w·T + t: the decoder outputs after dropout and the
	// dropout mask (N×H), the head outputs overwritten by ∂L/∂y (N×D), and
	// ∂L/∂(decoder output) (N×H).
	hd, mask, y, dhd mat.Matrix
}

// TrainBatch takes one teacher-forced gradient step over a minibatch: it
// accumulates every window's gradients, averages them, applies opt and
// returns the mean window loss. Windows may differ in length; each run of
// consecutive equal-length windows is one lockstep pass. Every window is
// validated before any gradient is touched, so a rejected batch leaves the
// model as it was. Training reuses model-owned scratch, so it must not run
// concurrently on a shared model.
func (m *Seq2Seq) TrainBatch(batch [][][]float64, opt nn.Optimizer) (float64, error) {
	total, err := m.backprop(batch)
	if err != nil {
		return 0, err
	}
	params := m.Params()
	inv := 1 / float64(len(batch))
	for _, p := range params {
		p.Grad.Scale(inv)
	}
	if err := opt.Step(params); err != nil {
		return 0, err
	}
	return total / float64(len(batch)), nil
}

// backprop validates batch, then adds every window's gradients in batch
// order and returns the sum of their mean per-step losses.
func (m *Seq2Seq) backprop(batch [][][]float64) (float64, error) {
	if len(batch) == 0 {
		return 0, fmt.Errorf("rnn: empty training batch")
	}
	for w, xs := range batch {
		if len(xs) == 0 {
			return 0, fmt.Errorf("rnn: empty training window %d", w)
		}
		for t, f := range xs {
			if len(f) != m.InSize {
				return 0, fmt.Errorf("%w: training window %d step %d width %d, want %d", mat.ErrShape, w, t, len(f), m.InSize)
			}
		}
	}
	var total float64
	for start := 0; start < len(batch); {
		end := start + 1
		for end < len(batch) && len(batch[end]) == len(batch[start]) {
			end++
		}
		if err := m.trainRun(batch[start:end], &total); err != nil {
			return 0, err
		}
		start = end
	}
	return total, nil
}

// trainRun adds the teacher-forced gradients of a run of validated equal-
// length windows and adds each window's mean per-step loss to *total, in
// window order.
func (m *Seq2Seq) trainRun(windows [][][]float64, total *float64) error {
	sc := &m.train
	B, T, D, H := len(windows), len(windows[0]), m.InSize, m.HiddenSize
	N := B * T

	fwd := m.Encoder
	if m.BiEncoder != nil {
		fwd = m.BiEncoder.Fwd
	}
	sc.enc.load(fwd, windows, false)
	if err := fwd.forward(&sc.enc, nil); err != nil {
		return fmt.Errorf("seq2seq encode: %w", err)
	}
	dec := &sc.dec
	dec.reset(m.Decoder, B, T)
	copy(dec.st.H.Data, sc.enc.st.H.Data)
	copy(dec.st.C.Data, sc.enc.st.C.Data)
	if m.BiEncoder != nil {
		sc.bwd.load(m.BiEncoder.Bwd, windows, true)
		if err := m.BiEncoder.Bwd.forward(&sc.bwd, nil); err != nil {
			return fmt.Errorf("seq2seq encode: %w", err)
		}
		// Sum-merge the directions' final states, as encodeBatch does.
		for i, v := range sc.bwd.st.H.Data {
			dec.st.H.Data[i] += v
		}
		for i, v := range sc.bwd.st.C.Data {
			dec.st.C.Data[i] += v
		}
	}

	// Teacher-forced decoder inputs: zero token, then ground truth shifted.
	for w, xs := range windows {
		clear(dec.input(w, 0))
		for t := 1; t < T; t++ {
			copy(dec.input(w, t), xs[t-1])
		}
	}
	hd := sc.hd.Reshape(N, H)
	if err := m.Decoder.forward(dec, hd); err != nil {
		return fmt.Errorf("seq2seq decode: %w", err)
	}

	// Inverted dropout on the decoder outputs; masks are drawn window by
	// window, step by step, unit by unit.
	var mask *mat.Matrix
	if m.DropRate > 0 {
		keep := 1 - m.DropRate
		mask = sc.mask.Reshape(N, H)
		for i := range hd.Data {
			if m.rng.Float64() < keep {
				mask.Data[i] = 1 / keep
				hd.Data[i] /= keep
			} else {
				mask.Data[i] = 0
				hd.Data[i] = 0
			}
		}
	}

	// Head forward, per-step MSE (scaled by 1/T) and head backward.
	y := sc.y.Reshape(N, D)
	if err := mat.MulBTCachedInto(y, hd, m.Wy, &m.cacheWy); err != nil {
		return err
	}
	if err := y.AddRowWise(m.By); err != nil {
		return err
	}
	n, scale := float64(D), 1/float64(T)
	for w, xs := range windows {
		var wl float64
		for t, x := range xs {
			yr := y.Row(w*T + t)
			var l float64
			for i, p := range yr {
				d := p - x[i]
				l += d * d
				yr[i] = d / n * scale // y becomes ∂L/∂y
			}
			wl += l / (2 * n)
		}
		*total += wl * scale
	}
	if err := mat.MulTAddInto(m.gradWy, y, hd); err != nil {
		return err
	}
	if err := y.SumColumnsInto(m.gradBy); err != nil {
		return err
	}
	dhd := sc.dhd.Reshape(N, H)
	if err := mat.MulInto(dhd, y, m.Wy); err != nil {
		return err
	}
	if mask != nil {
		for i, v := range mask.Data {
			dhd.Data[i] *= v
		}
	}

	if err := m.Decoder.backward(dec, dhd); err != nil {
		return fmt.Errorf("seq2seq decoder backward: %w", err)
	}
	// The encoder's final states are the decoder's initial ones, so their
	// gradients flow back unchanged — to both directions under sum-merge.
	encBackward := func(l *LSTM, p *lstmPass) error {
		copy(p.dh.Data, dec.dh.Data)
		copy(p.dc.Data, dec.dc.Data)
		if err := l.backward(p, nil); err != nil {
			return fmt.Errorf("seq2seq encoder backward: %w", err)
		}
		return nil
	}
	if err := encBackward(fwd, &sc.enc); err != nil || m.BiEncoder == nil {
		return err
	}
	return encBackward(m.BiEncoder.Bwd, &sc.bwd)
}
