package rnn

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/nn"
)

// Seq2Seq is an LSTM encoder–decoder that learns to reconstruct its input
// sequence, the paper's multivariate anomaly-detection model. The encoder
// (unidirectional or bidirectional) compresses the window into its final
// states; the decoder, initialised from those states, regenerates the
// sequence one step at a time, consuming its own previous output (a zero
// vector — the paper's "special token" — at the first step). The decoder
// output passes through dropout and a linear fully connected head, matching
// the paper's architecture (drop-rate 0.3, linear activation).
//
// Training uses teacher forcing (the previous *ground-truth* frame as
// decoder input), the standard seq2seq training regime of the paper's
// reference [8]; it runs each minibatch in lockstep (train.go). Inference is
// fully autoregressive and lives in batch.go.
type Seq2Seq struct {
	InSize     int
	HiddenSize int

	// Exactly one of Encoder / BiEncoder is non-nil.
	Encoder   *LSTM
	BiEncoder *BiLSTM
	Decoder   *LSTM

	// Linear reconstruction head: y = Wy·h + By, Wy ∈ ℝ^{D×H}.
	Wy *mat.Matrix
	By []float64

	// DropRate is the inverted-dropout rate applied to decoder outputs
	// during training.
	DropRate float64

	gradWy *mat.Matrix
	gradBy []float64
	rng    *rand.Rand

	// cacheWy holds the reconstruction head packed into panels for the
	// batched products; invalidated through Params().Cache on every weight
	// update.
	cacheWy mat.PanelCache

	// train is TrainBatch's workspace, reused across minibatches.
	train trainScratch
}

// Config selects the seq2seq variant to build.
type Config struct {
	// InSize is the per-step input dimensionality (18 for MHEALTH-like data).
	InSize int
	// HiddenSize is the LSTM unit count (per direction for bidirectional).
	HiddenSize int
	// Bidirectional selects a BiLSTM encoder (the cloud model).
	Bidirectional bool
	// DropRate is the decoder-output dropout rate; the paper uses 0.3.
	DropRate float64
}

// NewSeq2Seq builds a seq2seq model per cfg, drawing initial weights from rng.
func NewSeq2Seq(cfg Config, rng *rand.Rand) (*Seq2Seq, error) {
	if cfg.InSize <= 0 || cfg.HiddenSize <= 0 {
		return nil, fmt.Errorf("rnn: invalid seq2seq config %+v", cfg)
	}
	if cfg.DropRate < 0 || cfg.DropRate >= 1 {
		return nil, fmt.Errorf("rnn: drop rate %g out of [0,1)", cfg.DropRate)
	}
	m := &Seq2Seq{
		InSize:     cfg.InSize,
		HiddenSize: cfg.HiddenSize,
		Decoder:    NewLSTM(cfg.InSize, cfg.HiddenSize, rng),
		Wy:         mat.New(cfg.InSize, cfg.HiddenSize),
		By:         make([]float64, cfg.InSize),
		DropRate:   cfg.DropRate,
		gradWy:     mat.New(cfg.InSize, cfg.HiddenSize),
		gradBy:     make([]float64, cfg.InSize),
		rng:        rng,
	}
	if cfg.Bidirectional {
		m.BiEncoder = NewBiLSTM(cfg.InSize, cfg.HiddenSize, rng)
	} else {
		m.Encoder = NewLSTM(cfg.InSize, cfg.HiddenSize, rng)
	}
	nn.GlorotUniform(m.Wy, rng)
	return m, nil
}

// Loss evaluates the autoregressive reconstruction loss on xs without
// touching gradients.
func (m *Seq2Seq) Loss(xs [][]float64) (float64, error) {
	rec, err := m.Reconstruct(xs)
	if err != nil {
		return 0, err
	}
	var total float64
	for t := range xs {
		l, _, err := nn.MSELoss(rec[t], xs[t])
		if err != nil {
			return 0, err
		}
		total += l
	}
	return total / float64(len(xs)), nil
}

// Params returns all trainable parameters (encoder, decoder, head).
func (m *Seq2Seq) Params() []nn.Param {
	var ps []nn.Param
	if m.BiEncoder != nil {
		ps = append(ps, m.BiEncoder.Params()...)
	} else {
		ps = append(ps, m.Encoder.Params()...)
	}
	ps = append(ps, m.Decoder.Params()...)
	ps = append(ps,
		nn.Param{Name: "Wy", Value: m.Wy, Grad: m.gradWy, WeightDecay: true, Cache: &m.cacheWy},
		nn.Param{Name: "by", Value: vecMat(m.By), Grad: vecMat(m.gradBy)},
	)
	return ps
}

// NumParams returns the scalar parameter count, the paper's "#Parameters".
func (m *Seq2Seq) NumParams() int {
	n := m.Decoder.NumParams() + len(m.Wy.Data) + len(m.By)
	if m.BiEncoder != nil {
		n += m.BiEncoder.NumParams()
	} else {
		n += m.Encoder.NumParams()
	}
	return n
}

// FlopsPerWindow estimates MAC FLOPs for reconstructing a T-step window,
// used by the HEC device compute model.
func (m *Seq2Seq) FlopsPerWindow(T int) int64 {
	var enc int64
	if m.BiEncoder != nil {
		enc = m.BiEncoder.FlopsPerStep()
	} else {
		enc = m.Encoder.FlopsPerStep()
	}
	head := 2 * int64(m.Wy.Rows) * int64(m.Wy.Cols)
	return int64(T) * (enc + m.Decoder.FlopsPerStep() + head)
}
