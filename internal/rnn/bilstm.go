package rnn

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/nn"
)

// BiLSTM runs two LSTMs over a sequence — one forward, one on the reversed
// sequence — and concatenates their per-step hidden states, so the output
// width is 2·HiddenSize. The paper's cloud-layer model uses a BiLSTM
// encoder "to learn both backward and forward directions of the input
// sequence".
type BiLSTM struct {
	Fwd *LSTM
	Bwd *LSTM
}

// NewBiLSTM creates a bidirectional LSTM whose directions each have
// hiddenSize units.
func NewBiLSTM(inSize, hiddenSize int, rng *rand.Rand) *BiLSTM {
	return &BiLSTM{
		Fwd: NewLSTM(inSize, hiddenSize, rng),
		Bwd: NewLSTM(inSize, hiddenSize, rng),
	}
}

// ForwardSeq runs both directions over xs and returns per-step concatenated
// hidden states [h_fwd ‖ h_bwd] plus the final hidden and cell states of
// each direction ("final" for the backward direction means its state after
// consuming the whole reversed sequence, i.e. at original position 0).
func (b *BiLSTM) ForwardSeq(xs [][]float64) (hs [][]float64, hFwd, cFwd, hBwd, cBwd []float64, err error) {
	fh, hFwd, cFwd, err := b.Fwd.ForwardSeq(xs, nil, nil)
	if err != nil {
		return nil, nil, nil, nil, nil, fmt.Errorf("bilstm forward dir: %w", err)
	}
	rev := reverseSeq(xs)
	bh, hBwd, cBwd, err := b.Bwd.ForwardSeq(rev, nil, nil)
	if err != nil {
		return nil, nil, nil, nil, nil, fmt.Errorf("bilstm backward dir: %w", err)
	}
	T := len(xs)
	H := b.Fwd.HiddenSize
	hs = make([][]float64, T)
	for t := 0; t < T; t++ {
		h := make([]float64, 2*H)
		copy(h[:H], fh[t])
		copy(h[H:], bh[T-1-t]) // backward state aligned to original position
		hs[t] = h
	}
	return hs, hFwd, cFwd, hBwd, cBwd, nil
}

// BackwardSeq backpropagates through both directions. dhs are gradients for
// the concatenated per-step outputs (may be nil); dhFwd/dcFwd and dhBwd/dcBwd
// are gradients flowing into each direction's final states. It returns
// ∂L/∂x_t per original step.
func (b *BiLSTM) BackwardSeq(dhs [][]float64, dhFwd, dcFwd, dhBwd, dcBwd []float64) ([][]float64, error) {
	H := b.Fwd.HiddenSize
	var dFwd, dBwd [][]float64
	if dhs != nil {
		T := len(dhs)
		dFwd = make([][]float64, T)
		dBwd = make([][]float64, T)
		for t, dh := range dhs {
			if dh == nil {
				continue
			}
			if len(dh) != 2*H {
				return nil, fmt.Errorf("%w: bilstm grad width %d, want %d", mat.ErrShape, len(dh), 2*H)
			}
			dFwd[t] = mat.CloneVec(dh[:H])
			dBwd[T-1-t] = mat.CloneVec(dh[H:])
		}
	}
	dxF, _, _, err := b.Fwd.BackwardSeq(dFwd, dhFwd, dcFwd)
	if err != nil {
		return nil, fmt.Errorf("bilstm forward dir: %w", err)
	}
	dxB, _, _, err := b.Bwd.BackwardSeq(dBwd, dhBwd, dcBwd)
	if err != nil {
		return nil, fmt.Errorf("bilstm backward dir: %w", err)
	}
	T := len(dxF)
	dxs := make([][]float64, T)
	for t := 0; t < T; t++ {
		dx := dxF[t]
		rb := dxB[T-1-t]
		for i, v := range rb {
			dx[i] += v
		}
		dxs[t] = dx
	}
	return dxs, nil
}

// Params returns both directions' parameters.
func (b *BiLSTM) Params() []nn.Param {
	return append(b.Fwd.Params(), b.Bwd.Params()...)
}

// NumParams returns the scalar parameter count.
func (b *BiLSTM) NumParams() int { return b.Fwd.NumParams() + b.Bwd.NumParams() }

// FlopsPerStep estimates MAC FLOPs per timestep (both directions).
func (b *BiLSTM) FlopsPerStep() int64 { return b.Fwd.FlopsPerStep() + b.Bwd.FlopsPerStep() }

func reverseSeq(xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}
