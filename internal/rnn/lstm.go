// Package rnn implements recurrent networks — an LSTM trained by
// backpropagation through time, a bidirectional wrapper, and the
// sequence-to-sequence reconstruction models the paper deploys for
// multivariate anomaly detection (LSTM-seq2seq-IoT/Edge and
// BiLSTM-seq2seq-Cloud). Training (train.go) and inference (batch.go) both
// run a batch of windows in lockstep through the mat kernels.
package rnn

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/nn"
)

// LSTM is a single-layer long short-term memory network.
//
// Gate layout: the stacked pre-activation vector z = Wx·x + Wh·h + b has
// four blocks of size H in the order input (i), forget (f), candidate (g),
// output (o). The forget-gate bias block is initialised to 1, the standard
// trick that lets gradients flow early in training.
type LSTM struct {
	InSize     int
	HiddenSize int

	// Wx maps the input to the stacked gates (4H×D); Wh is the recurrent
	// kernel (4H×H); B the stacked gate bias (4H).
	Wx *mat.Matrix
	Wh *mat.Matrix
	B  []float64

	gradWx *mat.Matrix
	gradWh *mat.Matrix
	gradB  []float64

	// cacheWx/cacheWh hold the kernels packed into panels for the batched
	// products; invalidated through Params().Cache whenever the weights
	// change, so each kernel is packed once per update.
	cacheWx mat.PanelCache
	cacheWh mat.PanelCache
}

// NewLSTM creates an LSTM with Glorot-initialised input kernel, scaled-
// uniform recurrent kernel, and forget bias 1.
func NewLSTM(inSize, hiddenSize int, rng *rand.Rand) *LSTM {
	if inSize <= 0 || hiddenSize <= 0 {
		panic(fmt.Sprintf("rnn: invalid LSTM shape %d->%d", inSize, hiddenSize))
	}
	l := &LSTM{
		InSize:     inSize,
		HiddenSize: hiddenSize,
		Wx:         mat.New(4*hiddenSize, inSize),
		Wh:         mat.New(4*hiddenSize, hiddenSize),
		B:          make([]float64, 4*hiddenSize),
		gradWx:     mat.New(4*hiddenSize, inSize),
		gradWh:     mat.New(4*hiddenSize, hiddenSize),
		gradB:      make([]float64, 4*hiddenSize),
	}
	nn.GlorotUniform(l.Wx, rng)
	nn.OrthogonalFallback(l.Wh, rng)
	for i := hiddenSize; i < 2*hiddenSize; i++ { // forget-gate block
		l.B[i] = 1
	}
	return l
}

// Params returns the trainable parameters.
func (l *LSTM) Params() []nn.Param {
	return []nn.Param{
		{Name: "Wx", Value: l.Wx, Grad: l.gradWx, WeightDecay: true, Cache: &l.cacheWx},
		{Name: "Wh", Value: l.Wh, Grad: l.gradWh, WeightDecay: true, Cache: &l.cacheWh},
		{Name: "b", Value: vecMat(l.B), Grad: vecMat(l.gradB)},
	}
}

// NumParams returns the scalar parameter count.
func (l *LSTM) NumParams() int {
	return len(l.Wx.Data) + len(l.Wh.Data) + len(l.B)
}

// FlopsPerStep estimates multiply-accumulate FLOPs per timestep.
func (l *LSTM) FlopsPerStep() int64 {
	return 2 * int64(4*l.HiddenSize) * int64(l.InSize+l.HiddenSize)
}

func vecMat(v []float64) *mat.Matrix {
	return &mat.Matrix{Rows: 1, Cols: len(v), Data: v}
}
