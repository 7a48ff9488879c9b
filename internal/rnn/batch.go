package rnn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mat"
)

// Batched LSTM inference.
//
// The recurrent models spend their inference time in two matrix-vector
// products per step per sequence. Batching B windows turns each step into
// two matrix-matrix products (X_t·Wxᵀ and H·Whᵀ) through the blocked
// kernels, amortising both weight matrices over the whole batch. The
// kernels accumulate in per-sample order, so a row's result does not depend
// on the batch around it. This is the only inference path: a single window
// is a batch of one (Reconstruct, EncodedState). Training (train.go) runs
// the same kernels over its own model-owned scratch.
//
// Everything here is stateless with respect to the model: the evolving
// batch state lives in a caller-owned StepState, so any number of
// goroutines can run batched inference on a shared model concurrently.

// StepState is the caller-owned state of one batched LSTM direction: the
// current hidden and cell batches (one sequence per row) plus gate scratch
// reused across steps.
type StepState struct {
	// H and C are the B×H hidden and cell state batches, updated in place
	// by StepBatch.
	H, C mat.Matrix

	z, zh mat.Matrix
}

// Reset sizes the state for batch size b over hidden width h and zeroes the
// states (the LSTM's initial condition).
func (st *StepState) Reset(b, h int) {
	st.H.Reshape(b, h).Zero()
	st.C.Reshape(b, h).Zero()
}

// StepBatch advances the LSTM one timestep for a whole batch: x holds one
// input frame per row, st carries the previous states in and the new states
// out. Row r evolves exactly as sequence r would alone — the gate
// pre-activations, activations and state updates are computed in the same
// floating-point order as a per-sample step, and as the training forward.
func (l *LSTM) StepBatch(st *StepState, x *mat.Matrix) error {
	H := l.HiddenSize
	if x.Cols != l.InSize {
		return fmt.Errorf("%w: batch step input width %d, want %d", mat.ErrShape, x.Cols, l.InSize)
	}
	if st.H.Rows != x.Rows || st.H.Cols != H || st.C.Rows != x.Rows || st.C.Cols != H {
		return fmt.Errorf("%w: batch step state %dx%d for input %dx%d (hidden %d)",
			mat.ErrShape, st.H.Rows, st.H.Cols, x.Rows, x.Cols, H)
	}
	z := st.z.Reshape(x.Rows, 4*H)
	if err := mat.MulBTCachedInto(z, x, l.Wx, &l.cacheWx); err != nil {
		return fmt.Errorf("lstm batch step: %w", err)
	}
	zh := st.zh.Reshape(x.Rows, 4*H)
	if err := mat.MulBTCachedInto(zh, &st.H, l.Wh, &l.cacheWh); err != nil {
		return fmt.Errorf("lstm batch step: %w", err)
	}
	for r := 0; r < x.Rows; r++ {
		zr := z.Row(r)
		zhr := zh.Row(r)
		hr := st.H.Row(r)
		cr := st.C.Row(r)
		for i := range zr {
			zr[i] += zhr[i] + l.B[i]
		}
		for i := 0; i < H; i++ {
			ig := sigmoid(zr[i])
			fg := sigmoid(zr[H+i])
			gg := math.Tanh(zr[2*H+i])
			og := sigmoid(zr[3*H+i])
			c := fg*cr[i] + ig*gg
			tc := math.Tanh(c)
			cr[i] = c
			hr[i] = og * tc
		}
	}
	return nil
}

// inferScratch is the per-call workspace of batched seq2seq inference,
// leased from a pool so concurrent calls on a shared model stay free of
// per-step allocations without sharing any mutable state.
type inferScratch struct {
	// st is the forward encoder's state and, once encodeBatch returns, the
	// decoder's; bwd is the BiLSTM's reverse direction.
	st, bwd StepState
	// xt is the frame fed to the next step; yt receives the head's output.
	xt, yt mat.Matrix
}

var inferScratchPool = sync.Pool{New: func() any { return new(inferScratch) }}

// encodeBatch runs the encoder over a batch of equal-length windows in
// lockstep, one timestep of every window per batched step, and leaves the
// decoder's initial states in sc.st. For the bidirectional encoder the two
// directions' final states are summed, which keeps the decoder width equal
// to the per-direction hidden size.
func (m *Seq2Seq) encodeBatch(sc *inferScratch, windows [][][]float64) error {
	B, T := len(windows), len(windows[0])
	for w, xs := range windows {
		if len(xs) != T {
			return fmt.Errorf("%w: batch window %d has %d steps, want %d", mat.ErrShape, w, len(xs), T)
		}
		for t, f := range xs {
			if len(f) != m.InSize {
				return fmt.Errorf("%w: window %d step %d width %d, want %d", mat.ErrShape, w, t, len(f), m.InSize)
			}
		}
	}
	xt := sc.xt.Reshape(B, m.InSize)
	run := func(l *LSTM, st *StepState, t int) error {
		for w := range windows {
			copy(xt.Row(w), windows[w][t])
		}
		if err := l.StepBatch(st, xt); err != nil {
			return fmt.Errorf("seq2seq encode: %w", err)
		}
		return nil
	}
	fwd := m.Encoder
	if m.BiEncoder != nil {
		fwd = m.BiEncoder.Fwd
	}
	sc.st.Reset(B, m.HiddenSize)
	for t := 0; t < T; t++ {
		if err := run(fwd, &sc.st, t); err != nil {
			return err
		}
	}
	if m.BiEncoder == nil {
		return nil
	}
	sc.bwd.Reset(B, m.HiddenSize)
	for t := T - 1; t >= 0; t-- {
		if err := run(m.BiEncoder.Bwd, &sc.bwd, t); err != nil {
			return err
		}
	}
	for i, v := range sc.bwd.H.Data {
		sc.st.H.Data[i] += v
	}
	for i, v := range sc.bwd.C.Data {
		sc.st.C.Data[i] += v
	}
	return nil
}

// EncodedState returns the encoder's final hidden state for xs — the
// paper's contextual state for the multivariate policy network.
func (m *Seq2Seq) EncodedState(xs [][]float64) ([]float64, error) {
	sc := inferScratchPool.Get().(*inferScratch)
	defer inferScratchPool.Put(sc)
	if err := m.encodeBatch(sc, [][][]float64{xs}); err != nil {
		return nil, err
	}
	return mat.CloneVec(sc.st.H.Row(0)), nil
}

// Reconstruct runs autoregressive inference on one window: ReconstructBatch
// of one.
func (m *Seq2Seq) Reconstruct(xs [][]float64) ([][]float64, error) {
	out, err := m.ReconstructBatch([][][]float64{xs})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ReconstructBatch runs autoregressive inference over a batch of equal-
// length windows in lockstep: the encoder consumes one timestep of every
// window per batched step, and the decoder regenerates all windows
// together, each starting from a zero vector and consuming its own previous
// reconstruction. It returns one reconstructed sequence per window — row r
// is the same bits whatever else is in the batch — and is safe for
// concurrent use on a shared model.
func (m *Seq2Seq) ReconstructBatch(windows [][][]float64) ([][][]float64, error) {
	B := len(windows)
	if B == 0 {
		return nil, nil
	}
	T, D := len(windows[0]), m.InSize
	if T == 0 {
		return nil, fmt.Errorf("rnn: Reconstruct of empty sequence")
	}
	sc := inferScratchPool.Get().(*inferScratch)
	defer inferScratchPool.Put(sc)
	if err := m.encodeBatch(sc, windows); err != nil {
		return nil, err
	}

	// The result is the caller's to keep, so it cannot come from the pool;
	// one slab each for the values and the row headers keeps it at three
	// allocations whatever B and T are.
	vals := make([]float64, B*T*D)
	rows := make([][]float64, B*T)
	out := make([][][]float64, B)
	for w := range out {
		out[w] = rows[w*T : (w+1)*T : (w+1)*T]
	}
	prev := sc.xt.Reshape(B, D)
	prev.Zero() // zero start token
	yt := sc.yt.Reshape(B, D)
	for t := 0; t < T; t++ {
		if err := m.Decoder.StepBatch(&sc.st, prev); err != nil {
			return nil, fmt.Errorf("seq2seq decode step %d: %w", t, err)
		}
		if err := mat.MulBTCachedInto(yt, &sc.st.H, m.Wy, &m.cacheWy); err != nil {
			return nil, err
		}
		if err := yt.AddRowWise(m.By); err != nil {
			return nil, err
		}
		for w := range out {
			at := (w*T + t) * D
			out[w][t] = vals[at : at+D : at+D]
			copy(out[w][t], yt.Row(w))
		}
		prev, yt = yt, prev
	}
	return out, nil
}
