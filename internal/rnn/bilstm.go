package rnn

import (
	"math/rand"

	"repro/internal/nn"
)

// BiLSTM runs two LSTMs over a sequence — one forward, one on the reversed
// sequence. The paper's cloud-layer model uses a BiLSTM encoder "to learn
// both backward and forward directions of the input sequence"; Seq2Seq sums
// the two directions' final states into the decoder's initial state.
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

// Params returns both directions' parameters.
func (b *BiLSTM) Params() []nn.Param {
	return append(b.Fwd.Params(), b.Bwd.Params()...)
}

// NumParams returns the scalar parameter count.
func (b *BiLSTM) NumParams() int { return b.Fwd.NumParams() + b.Bwd.NumParams() }

// FlopsPerStep estimates MAC FLOPs per timestep (both directions).
func (b *BiLSTM) FlopsPerStep() int64 { return b.Fwd.FlopsPerStep() + b.Bwd.FlopsPerStep() }
