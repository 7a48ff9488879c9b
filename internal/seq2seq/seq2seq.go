// Package seq2seq builds the paper's multivariate anomaly-detection suite:
// LSTM-seq2seq-IoT, LSTM-seq2seq-Edge (double the LSTM units) and
// BiLSTM-seq2seq-Cloud (bidirectional encoder), each paired with a
// multivariate Gaussian logPD scorer fitted on its per-step reconstruction
// errors over normal training windows.
//
// Hidden sizes are scaled down from the paper's TensorFlow models for
// pure-Go tractability while preserving the structural relations the paper
// specifies: Edge has double the IoT units, Cloud has a BiLSTM encoder, and
// parameter counts increase strictly from IoT to Cloud (see DESIGN.md §2).
package seq2seq

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/anomaly"
	"repro/internal/autoencoder"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rnn"
)

// Tier aliases the HEC tier type shared with the univariate suite.
type Tier = autoencoder.Tier

// Re-exported tiers for callers importing only this package.
const (
	TierIoT   = autoencoder.TierIoT
	TierEdge  = autoencoder.TierEdge
	TierCloud = autoencoder.TierCloud
)

// Model is one seq2seq anomaly detector.
type Model struct {
	// ModelName is the paper's model name, e.g. "LSTM-seq2seq-IoT".
	ModelName string
	// Net is the underlying encoder–decoder.
	Net *rnn.Seq2Seq
	// Scorer is set by Fit; nil until the model is trained.
	Scorer *anomaly.Scorer
	// Conf is the confidence rule used by Detect.
	Conf anomaly.Confidence
}

// Sizing controls the hidden width of the suite. BaseHidden is the IoT
// model's LSTM unit count; Edge uses 2×BaseHidden (the paper's "double
// number of LSTM units") and Cloud a BiLSTM with 3×BaseHidden per
// direction.
type Sizing struct {
	// InSize is the channel count (18 for MHEALTH-like data).
	InSize int
	// BaseHidden is the IoT model's LSTM width.
	BaseHidden int
	// DropRate is the decoder-output dropout (the paper uses 0.3).
	DropRate float64
}

// DefaultSizing returns the benchmark harness configuration.
func DefaultSizing() Sizing { return Sizing{InSize: 18, BaseHidden: 16, DropRate: 0.3} }

// New builds an untrained seq2seq detector for the given tier.
func New(tier Tier, s Sizing, rng *rand.Rand) (*Model, error) {
	if s.InSize <= 0 || s.BaseHidden <= 0 {
		return nil, fmt.Errorf("seq2seq: invalid sizing %+v", s)
	}
	var cfg rnn.Config
	var name string
	switch tier {
	case TierIoT:
		cfg = rnn.Config{InSize: s.InSize, HiddenSize: s.BaseHidden, DropRate: s.DropRate}
		name = "LSTM-seq2seq-IoT"
	case TierEdge:
		cfg = rnn.Config{InSize: s.InSize, HiddenSize: 2 * s.BaseHidden, DropRate: s.DropRate}
		name = "LSTM-seq2seq-Edge"
	case TierCloud:
		cfg = rnn.Config{InSize: s.InSize, HiddenSize: 3 * s.BaseHidden, Bidirectional: true, DropRate: s.DropRate}
		name = "BiLSTM-seq2seq-Cloud"
	default:
		return nil, fmt.Errorf("seq2seq: unknown tier %d", int(tier))
	}
	net, err := rnn.NewSeq2Seq(cfg, rng)
	if err != nil {
		return nil, err
	}
	return &Model{ModelName: name, Net: net, Conf: anomaly.DefaultConfidence()}, nil
}

// TrainConfig parameterises Fit.
type TrainConfig struct {
	// Epochs over the training windows.
	Epochs int
	// LR is the RMSProp learning rate.
	LR float64
	// WeightDecay is the ℓ2 kernel regularisation (the paper uses 1e-4).
	WeightDecay float64
	// ScorerReg is the ridge added to the error Gaussian's covariance.
	ScorerReg float64
	// BatchSize groups windows per optimiser step; 0 means 4.
	BatchSize int
}

// DefaultTrainConfig returns the settings used by the benchmark harness.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 8, LR: 2e-3, WeightDecay: 1e-4, ScorerReg: 1e-4, BatchSize: 4}
}

// Fit trains the model on normal windows (T×D standardised frames), then
// fits the logPD scorer on per-step reconstruction-error vectors. It
// returns the final mean training loss.
func (m *Model) Fit(train [][][]float64, cfg TrainConfig, rng *rand.Rand) (float64, error) {
	if len(train) == 0 {
		return 0, fmt.Errorf("seq2seq: empty training set")
	}
	if cfg.Epochs <= 0 {
		return 0, fmt.Errorf("seq2seq: epochs must be positive")
	}
	bs := cfg.BatchSize
	if bs <= 0 {
		bs = 4
	}
	opt := nn.NewRMSProp(cfg.LR)
	opt.WeightDecay = cfg.WeightDecay
	opt.ClipNorm = 5

	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	var last float64
	for e := 0; e < cfg.Epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var total float64
		var batches int
		for start := 0; start < len(order); start += bs {
			end := start + bs
			if end > len(order) {
				end = len(order)
			}
			batch := make([][][]float64, 0, end-start)
			for _, idx := range order[start:end] {
				batch = append(batch, train[idx])
			}
			loss, err := m.Net.TrainBatch(batch, opt)
			if err != nil {
				return 0, fmt.Errorf("training %s: %w", m.ModelName, err)
			}
			total += loss
			batches++
		}
		last = total / float64(batches)
	}

	// Fit the scorer on per-step error vectors from the training windows,
	// reconstructed through the inference path fitBatch windows at a time
	// (step order matches a window-by-window loop).
	const fitBatch = 32
	var (
		sc   detectScratch
		errs [][]float64
	)
	for start := 0; start < len(train); {
		end := min(lockstepRun(train, start), start+fitBatch)
		if err := m.runErrors(&sc, train[start:end], start, nil); err != nil {
			return 0, err
		}
		for r := 0; r < sc.errs.Rows; r++ {
			errs = append(errs, mat.CloneVec(sc.errs.Row(r)))
		}
		start = end
	}
	scorer, err := anomaly.FitScorer(errs, cfg.ScorerReg)
	if err != nil {
		return 0, fmt.Errorf("fitting scorer for %s: %w", m.ModelName, err)
	}
	m.Scorer = scorer
	return last, nil
}

// Name implements anomaly.Detector.
func (m *Model) Name() string { return m.ModelName }

// Detect implements anomaly.Detector for T×D multivariate windows:
// DetectBatch of one window.
func (m *Model) Detect(frames [][]float64) (anomaly.Verdict, error) {
	vs, err := m.DetectBatch([][][]float64{frames})
	if err != nil {
		return anomaly.Verdict{}, err
	}
	return vs[0], nil
}

// lockstepRun returns the end of the run of windows beginning at start that
// share its length — what one ReconstructBatch call can take, since the
// recurrent time loop runs in lockstep.
func lockstepRun(windows [][][]float64, start int) int {
	end := start + 1
	for end < len(windows) && len(windows[end]) == len(windows[start]) {
		end++
	}
	return end
}

// detectScratch is the per-call workspace of runErrors.
type detectScratch struct {
	// errs holds the kept windows' reconstructions, then their errors.
	errs mat.Matrix
	// kept lists the kept windows' positions in the run.
	kept []int
	// scores holds the kept windows' point scores.
	scores []float64
}

// detectScratchPool leases DetectKept its workspace, so steady-state
// detection does not allocate one per call.
var detectScratchPool = sync.Pool{New: func() any { return new(detectScratch) }}

// runErrors reconstructs the windows of an equal-length run that keep
// accepts (all of them when keep is nil) and leaves their per-step
// D-dimensional error vectors in sc.errs, window after window, and their
// positions in the run in sc.kept. first is the run's first window's index
// in keep's numbering.
func (m *Model) runErrors(sc *detectScratch, run [][][]float64, first int, keep anomaly.Keep) error {
	sc.kept = sc.kept[:0]
	err := m.Net.ReconstructKept(&sc.errs, run, func(k int, z []float64) (bool, error) {
		ok, err := true, error(nil)
		if keep != nil {
			ok, err = keep(first+k, z)
		}
		if ok {
			sc.kept = append(sc.kept, k)
		}
		return ok, err
	})
	if err != nil {
		return err
	}
	T := len(run[0])
	for r, k := range sc.kept {
		for t, x := range run[k] {
			row := sc.errs.Row(r*T + t)
			for j := range row {
				row[j] -= x[j]
			}
		}
	}
	return nil
}

// DetectBatch implements anomaly.BatchDetector: DetectKept keeping every
// window.
func (m *Model) DetectBatch(windows [][][]float64) ([]anomaly.Verdict, error) {
	return m.DetectKept(windows, nil)
}

// DetectKept implements anomaly.HandoffDetector: windows are encoded in
// lockstep through the batched LSTM kernels, each window's encoder state
// goes to keep, and the kept windows are decoded and their per-step errors
// scored in one matrix pass. Callers may mix lengths freely: each run of
// consecutive equal-length windows is one lockstep batch. A window's
// verdict and state do not depend on the batch around it, and the call is
// safe for concurrent use.
func (m *Model) DetectKept(windows [][][]float64, keep anomaly.Keep) ([]anomaly.Verdict, error) {
	if m.Scorer == nil {
		return nil, fmt.Errorf("seq2seq: %s not fitted", m.ModelName)
	}
	if len(windows) == 0 {
		return nil, nil
	}
	sc := detectScratchPool.Get().(*detectScratch)
	defer detectScratchPool.Put(sc)
	out := make([]anomaly.Verdict, len(windows))
	for start := 0; start < len(windows); {
		end := lockstepRun(windows, start)
		run := windows[start:end]
		if err := m.runErrors(sc, run, start, keep); err != nil {
			return nil, err
		}
		if len(sc.kept) > 0 {
			scores, err := m.Scorer.ScoreMatrixInto(sc.scores, &sc.errs)
			if err != nil {
				return nil, err
			}
			sc.scores = scores
			T := len(run[0])
			for r, k := range sc.kept {
				out[start+k] = m.Scorer.Judge(scores[r*T:(r+1)*T], m.Conf)
			}
		}
		start = end
	}
	return out, nil
}

// NumParams implements anomaly.Detector.
func (m *Model) NumParams() int { return m.Net.NumParams() }

// FlopsPerWindow implements anomaly.Detector.
func (m *Model) FlopsPerWindow(T int) int64 { return m.Net.FlopsPerWindow(T) }

// EncodedState exposes the encoder state for the policy network's
// multivariate context (the paper extracts it from the IoT model).
func (m *Model) EncodedState(frames [][]float64) ([]float64, error) {
	return m.Net.EncodedState(frames)
}

// StateDim is the width of EncodedState vectors.
func (m *Model) StateDim() int { return m.Net.HiddenSize }

// Context implements features.Extractor: the model is its own policy
// context, EncodedState.
func (m *Model) Context(frames [][]float64) ([]float64, error) { return m.EncodedState(frames) }

// Dim implements features.Extractor: StateDim.
func (m *Model) Dim() int { return m.StateDim() }

// Quantize applies FP16 compression to the model weights, reproducing the
// paper's deployment step for IoT- and edge-hosted models. Returns the
// worst-case rounding error.
func (m *Model) Quantize() float64 { return m.QuantizeMode(nn.QuantFP16) }

// QuantizeMode rounds the model weights in place to the given precision
// tier's representable values (fp16 or int8). Returns the worst-case
// rounding error introduced.
func (m *Model) QuantizeMode(mode nn.QuantMode) float64 {
	return nn.QuantizeParams(m.Net.Params(), mode)
}
