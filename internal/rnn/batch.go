package rnn

import (
	"fmt"
	"sync"

	"repro/internal/mat"
)

// Batched LSTM inference.
//
// The recurrent models spend their inference time in two matrix-vector
// products per step per sequence. Batching B windows turns each step into
// two matrix-matrix products (X_t·Wxᵀ and H·Whᵀ) through the blocked
// kernels, amortising both weight matrices over the whole batch. The
// encoder sees all its inputs up front, so its X·Wxᵀ is hoisted out of the
// recurrence into one product per block of steps; the decoder feeds on its
// own output and keeps both products per step. The kernels accumulate in
// per-sample order, so a row's result does not depend on the batch around
// it. This is the only inference path: a single window is a batch of one
// (Reconstruct, EncodedState). Training (train.go) runs the same kernels and
// the same cell over its own model-owned scratch.
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
	tc    []float64 // the cell's tanh(c), which inference does not keep
}

// tanhC returns the H-wide scratch for the cell's tanh(c).
func (st *StepState) tanhC(h int) []float64 {
	if cap(st.tc) < h {
		st.tc = make([]float64, h)
	}
	return st.tc[:h]
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
	return l.recur(st, z.Data)
}

// recur finishes one step for every sequence of st from their input
// projections, row r of z for sequence r: one recurrent product H·Whᵀ, then
// the cell row by row.
func (l *LSTM) recur(st *StepState, z []float64) error {
	G := 4 * l.HiddenSize
	zh := st.zh.Reshape(st.H.Rows, G)
	if err := mat.MulBTCachedInto(zh, &st.H, l.Wh, &l.cacheWh); err != nil {
		return fmt.Errorf("lstm batch step: %w", err)
	}
	tc := st.tanhC(l.HiddenSize)
	for r := 0; r < st.H.Rows; r++ {
		l.cell(z[r*G:(r+1)*G], zh.Row(r), st.C.Row(r), st.H.Row(r), tc)
	}
	return nil
}

// encode runs l over the frame-major slab xs — row t·B + w is window w's
// step t — from the states in st, backwards in time when reverse is set.
// The input projection is hoisted out of the recurrence: it is one product
// per block of steps, each block small enough to stay on the calling
// goroutine, so a step is only the recurrent product and the cell. xb is
// scratch for the block's view of xs. Each row of a product is computed on
// its own, so the states carry the bits StepBatch would give them.
func (l *LSTM) encode(st *StepState, xs, xb *mat.Matrix, reverse bool) error {
	B, I, G := st.H.Rows, l.InSize, 4*l.HiddenSize
	T := xs.Rows / B
	steps := max(1, mat.SequentialRows(I, G)/B)
	for done := 0; done < T; done += steps {
		n := min(steps, T-done)
		t0 := done
		if reverse {
			t0 = T - done - n
		}
		xb.Rows, xb.Cols, xb.Data = n*B, I, xs.Data[t0*B*I:(t0+n)*B*I]
		z := st.z.Reshape(n*B, G)
		if err := mat.MulBTCachedInto(z, xb, l.Wx, &l.cacheWx); err != nil {
			return fmt.Errorf("lstm encode: %w", err)
		}
		for s := 0; s < n; s++ {
			j := s
			if reverse {
				j = n - 1 - s
			}
			if err := l.recur(st, z.Data[j*B*G:(j+1)*B*G]); err != nil {
				return err
			}
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
	// xs holds the windows' frames as one frame-major slab, row t·B + w;
	// xb is the view of the block of it being projected.
	xs, xb mat.Matrix
	// xt is the frame fed to the next decoder step; yt receives the head's
	// output.
	xt, yt mat.Matrix
	// kept lists the windows ReconstructKept decodes, by batch position.
	kept []int
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
	xs := sc.xs.Reshape(T*B, m.InSize)
	for w, win := range windows {
		for t, f := range win {
			copy(xs.Row(t*B+w), f)
		}
	}
	fwd := m.Encoder
	if m.BiEncoder != nil {
		fwd = m.BiEncoder.Fwd
	}
	sc.st.Reset(B, m.HiddenSize)
	if err := fwd.encode(&sc.st, xs, &sc.xb, false); err != nil {
		return fmt.Errorf("seq2seq encode: %w", err)
	}
	if m.BiEncoder == nil {
		return nil
	}
	sc.bwd.Reset(B, m.HiddenSize)
	if err := m.BiEncoder.Bwd.encode(&sc.bwd, xs, &sc.xb, true); err != nil {
		return fmt.Errorf("seq2seq encode: %w", err)
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
// concurrent use on a shared model. It is ReconstructKept keeping every
// window, with the result in slices of the caller's own.
func (m *Seq2Seq) ReconstructBatch(windows [][][]float64) ([][][]float64, error) {
	B := len(windows)
	if B == 0 {
		return nil, nil
	}
	// The result is the caller's to keep, so it cannot come from the pool;
	// one slab each for the values and the row headers keeps it at three
	// allocations whatever B and T are.
	var rec mat.Matrix
	if err := m.ReconstructKept(&rec, windows, nil); err != nil {
		return nil, err
	}
	T, D := len(windows[0]), m.InSize
	rows := make([][]float64, B*T)
	out := make([][][]float64, B)
	for w := range out {
		out[w] = rows[w*T : (w+1)*T : (w+1)*T]
		for t := range out[w] {
			at := (w*T + t) * D
			out[w][t] = rec.Data[at : at+D : at+D]
		}
	}
	return out, nil
}

// ReconstructKept is ReconstructBatch with a say between the encoder and
// the decoder: it encodes every window, hands keep window i's final hidden
// state h — the bits EncodedState returns for it — and decodes only the
// windows keep accepts, into rec: row r·T + t is step t of the r-th kept
// window, in batch order, and rec has no rows when keep rejects them all.
// h is valid only during the call; keep must copy what it retains. A keep
// error stops the call and is returned as it is. A nil keep keeps every
// window.
func (m *Seq2Seq) ReconstructKept(rec *mat.Matrix, windows [][][]float64, keep func(i int, h []float64) (bool, error)) error {
	B := len(windows)
	if B == 0 {
		rec.Reshape(0, m.InSize)
		return nil
	}
	if len(windows[0]) == 0 {
		return fmt.Errorf("rnn: Reconstruct of empty sequence")
	}
	sc := inferScratchPool.Get().(*inferScratch)
	defer inferScratchPool.Put(sc)
	if err := m.encodeBatch(sc, windows); err != nil {
		return err
	}
	if keep != nil {
		kept := sc.kept[:0]
		for w := 0; w < B; w++ {
			ok, err := keep(w, sc.st.H.Row(w))
			if err != nil {
				return err
			}
			if ok {
				kept = append(kept, w)
			}
		}
		sc.kept = kept
		if len(kept) == 0 {
			rec.Reshape(0, m.InSize)
			return nil
		}
		if len(kept) < B {
			keepRows(&sc.st.H, kept)
			keepRows(&sc.st.C, kept)
		}
	}
	return m.decodeBatch(sc, rec, len(windows[0]))
}

// keepRows compacts m to its rows at the ascending positions kept.
func keepRows(m *mat.Matrix, kept []int) {
	for r, w := range kept {
		copy(m.Row(r), m.Row(w))
	}
	m.Reshape(len(kept), m.Cols)
}

// decodeBatch runs the decoder T steps from the states encodeBatch left in
// sc.st, one row per window, and writes row r's step t to rec's row r·T + t.
func (m *Seq2Seq) decodeBatch(sc *inferScratch, rec *mat.Matrix, T int) error {
	B, D := sc.st.H.Rows, m.InSize
	rec.Reshape(B*T, D)
	prev := sc.xt.Reshape(B, D)
	prev.Zero() // zero start token
	yt := sc.yt.Reshape(B, D)
	for t := 0; t < T; t++ {
		if err := m.Decoder.StepBatch(&sc.st, prev); err != nil {
			return fmt.Errorf("seq2seq decode step %d: %w", t, err)
		}
		if err := mat.MulBTCachedInto(yt, &sc.st.H, m.Wy, &m.cacheWy); err != nil {
			return err
		}
		if err := yt.AddRowWise(m.By); err != nil {
			return err
		}
		for r := 0; r < B; r++ {
			copy(rec.Row(r*T+t), yt.Row(r))
		}
		prev, yt = yt, prev
	}
	return nil
}
