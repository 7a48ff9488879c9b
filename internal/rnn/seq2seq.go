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
// reference [8], through the scalar forward in this file and lstm.go;
// inference is fully autoregressive and lives in batch.go.
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

	// cacheWy holds the reconstruction head packed into panels for
	// ReconstructBatch; invalidated through Params().Cache on every weight
	// update.
	cacheWy mat.PanelCache
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

// encode runs the encoder's training forward (caching for BackwardSeq) and
// returns the decoder's initial states. For the bidirectional encoder the
// two directions' final states are summed, as encodeBatch does at inference.
func (m *Seq2Seq) encode(xs [][]float64) (h0, c0 []float64, err error) {
	if m.BiEncoder != nil {
		_, hF, cF, hB, cB, err := m.BiEncoder.ForwardSeq(xs)
		if err != nil {
			return nil, nil, err
		}
		h0, err = mat.AddVec(hF, hB)
		if err != nil {
			return nil, nil, err
		}
		c0, err = mat.AddVec(cF, cB)
		if err != nil {
			return nil, nil, err
		}
		return h0, c0, nil
	}
	_, h0, c0, err = m.Encoder.ForwardSeq(xs, nil, nil)
	return h0, c0, err
}

// TrainStep performs one teacher-forced gradient step on the window xs and
// returns the mean per-step reconstruction loss before the update.
func (m *Seq2Seq) TrainStep(xs [][]float64, opt nn.Optimizer) (float64, error) {
	loss, err := m.accumulate(xs)
	if err != nil {
		return 0, err
	}
	if err := opt.Step(m.Params()); err != nil {
		return 0, err
	}
	return loss, nil
}

// TrainBatch accumulates gradients over several windows before one optimiser
// step (mini-batch training); it returns the mean window loss.
func (m *Seq2Seq) TrainBatch(batch [][][]float64, opt nn.Optimizer) (float64, error) {
	if len(batch) == 0 {
		return 0, fmt.Errorf("rnn: empty training batch")
	}
	var total float64
	for _, xs := range batch {
		l, err := m.accumulate(xs)
		if err != nil {
			return 0, err
		}
		total += l
	}
	// Average the accumulated gradients over the batch.
	inv := 1 / float64(len(batch))
	for _, p := range m.Params() {
		p.Grad.Scale(inv)
	}
	if err := opt.Step(m.Params()); err != nil {
		return 0, err
	}
	return total / float64(len(batch)), nil
}

// accumulate runs one teacher-forced forward/backward pass over xs, adding
// into the parameter gradients, and returns the mean per-step loss.
func (m *Seq2Seq) accumulate(xs [][]float64) (float64, error) {
	T := len(xs)
	if T == 0 {
		return 0, fmt.Errorf("rnn: empty training window")
	}
	h0, c0, err := m.encode(xs)
	if err != nil {
		return 0, fmt.Errorf("seq2seq encode: %w", err)
	}
	// Teacher-forced decoder inputs: zero token, then ground truth shifted.
	decIn := make([][]float64, T)
	decIn[0] = make([]float64, m.InSize)
	for t := 1; t < T; t++ {
		decIn[t] = xs[t-1]
	}
	hs, _, _, err := m.Decoder.ForwardSeq(decIn, h0, c0)
	if err != nil {
		return 0, fmt.Errorf("seq2seq decode: %w", err)
	}

	// Head forward + loss + head backward per step.
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
		y, err := m.Wy.MulVec(hDrop)
		if err != nil {
			return 0, err
		}
		for i := range y {
			y[i] += m.By[i]
		}
		l, dy, err := nn.MSELoss(y, xs[t])
		if err != nil {
			return 0, err
		}
		total += l
		mat.ScaleVec(scale, dy)
		if err := m.gradWy.OuterAdd(dy, hDrop); err != nil {
			return 0, err
		}
		for i, g := range dy {
			m.gradBy[i] += g
		}
		dh, err := m.Wy.MulVecT(dy)
		if err != nil {
			return 0, err
		}
		if mask != nil {
			for i := range dh {
				dh[i] *= mask[i]
			}
		}
		dhs[t] = dh
	}

	_, dh0, dc0, err := m.Decoder.BackwardSeq(dhs, nil, nil)
	if err != nil {
		return 0, fmt.Errorf("seq2seq decoder backward: %w", err)
	}
	if m.BiEncoder != nil {
		// Sum-merge means the same gradient flows to both directions.
		if _, err := m.BiEncoder.BackwardSeq(nil, dh0, dc0, mat.CloneVec(dh0), mat.CloneVec(dc0)); err != nil {
			return 0, fmt.Errorf("seq2seq encoder backward: %w", err)
		}
	} else {
		if _, _, _, err := m.Encoder.BackwardSeq(nil, dh0, dc0); err != nil {
			return 0, fmt.Errorf("seq2seq encoder backward: %w", err)
		}
	}
	return total * scale, nil
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
