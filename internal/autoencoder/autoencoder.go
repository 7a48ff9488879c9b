// Package autoencoder builds the paper's univariate anomaly-detection
// suite: three autoencoders of increasing depth — AE-IoT (3 layers),
// AE-Edge (5 layers) and AE-Cloud (7 layers) — each paired with a Gaussian
// logPD scorer fitted on its reconstruction errors over normal training
// weeks.
//
// Layer counts follow the Keras convention the paper uses (input, hidden…,
// output), so AE-IoT has one hidden layer, AE-Edge three and AE-Cloud five.
// Widths are scaled to the synthetic power dataset's 672-reading weekly
// window while preserving the paper's strict capacity ordering
// IoT < Edge < Cloud (see DESIGN.md §2).
package autoencoder

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/anomaly"
	"repro/internal/mat"
	"repro/internal/nn"
)

// Tier identifies the HEC layer a model is built for.
type Tier int

// The three tiers, bottom (IoT) to top (Cloud).
const (
	TierIoT Tier = iota + 1
	TierEdge
	TierCloud
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierIoT:
		return "IoT"
	case TierEdge:
		return "Edge"
	case TierCloud:
		return "Cloud"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Model is one autoencoder anomaly detector.
type Model struct {
	// ModelName is the paper's model name, e.g. "AE-IoT".
	ModelName string
	// Net is the underlying dense network.
	Net *nn.Sequential
	// Scorer is set by Fit; nil until the model is trained.
	Scorer *anomaly.Scorer
	// Conf is the confidence rule used by Detect.
	Conf anomaly.Confidence

	inputDim int
}

// hidden widths per tier for a 672-wide input; each tier strictly grows
// both depth and parameter count. The bottlenecks are sized against the
// synthetic power data's intrinsic variation (~27 jitter parameters per
// week): AE-IoT's bottleneck (6) cannot encode the natural day-shape
// jitter, AE-Edge's (16) captures most of it, and AE-Cloud's (32, behind
// wider codecs) captures all of it — which is what grades their detection
// of subtle anomalies.
func tierWidths(tier Tier, inputDim int) ([]int, error) {
	switch tier {
	case TierIoT:
		return []int{inputDim / 112}, nil // 672 -> 6
	case TierEdge:
		return []int{inputDim / 14, inputDim / 42, inputDim / 14}, nil // 48-16-48
	case TierCloud:
		return []int{inputDim / 2, inputDim / 6, inputDim / 21, inputDim / 6, inputDim / 2}, nil // 336-112-32-112-336
	default:
		return nil, fmt.Errorf("autoencoder: unknown tier %d", int(tier))
	}
}

// New builds an untrained autoencoder for the given HEC tier and input
// width.
func New(tier Tier, inputDim int, rng *rand.Rand) (*Model, error) {
	if inputDim < 42 {
		return nil, fmt.Errorf("autoencoder: input dim %d too small", inputDim)
	}
	widths, err := tierWidths(tier, inputDim)
	if err != nil {
		return nil, err
	}
	var layers []nn.Layer
	prev := inputDim
	for _, w := range widths {
		layers = append(layers, nn.NewDense(prev, w, rng), nn.NewActivation(nn.ActReLU))
		prev = w
	}
	layers = append(layers, nn.NewDense(prev, inputDim, rng)) // linear output
	return &Model{
		ModelName: "AE-" + tier.String(),
		Net:       nn.NewSequential(layers...),
		Conf:      anomaly.DefaultConfidence(),
		inputDim:  inputDim,
	}, nil
}

// TrainConfig parameterises Fit.
type TrainConfig struct {
	// Epochs over the training set.
	Epochs int
	// LR is the Adam learning rate.
	LR float64
	// WeightDecay is the ℓ2 kernel regularisation (the paper uses 1e-4).
	WeightDecay float64
	// ScorerReg is the ridge added to the error Gaussian's covariance.
	ScorerReg float64
	// BatchSize groups samples per optimiser step through the batched tensor
	// engine (minibatch SGD with batch-averaged gradients). Values < 2 keep
	// the paper's per-sample stochastic updates — the default, and with the
	// small weekly training sets the right quality/step tradeoff. Every
	// batch size runs the same vectorised code path; at 1 the training
	// trajectory is bit-identical to the legacy per-sample loop.
	BatchSize int
}

// DefaultTrainConfig returns the settings used by the benchmark harness.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 40, LR: 1e-3, WeightDecay: 1e-4, ScorerReg: 1e-6}
}

// newOptimizer returns the optimiser Fit trains with. Adam converges
// markedly faster than RMSProp on the deeper AE stacks at these widths; the
// paper's AE training details live in its ref [3], so the optimiser choice
// is ours to make.
func newOptimizer(cfg TrainConfig) *nn.Adam {
	opt := nn.NewAdam(cfg.LR)
	opt.WeightDecay = cfg.WeightDecay
	opt.ClipNorm = 5
	return opt
}

// Fit trains the autoencoder on normal weeks (each a slice of inputDim
// standardised readings), then fits the logPD scorer and threshold on the
// training reconstruction errors. It returns the final mean training loss.
//
// Training runs through the batched tensor engine: cfg.BatchSize samples
// are stacked into a matrix, pushed through one matrix-matrix forward and
// backward pass, and applied as one batch-averaged optimiser step. The
// default batch size of 1 reproduces the paper's per-sample stochastic
// updates bit for bit (the batch kernels accumulate in per-sample order);
// larger batches trade update count for a multi-x throughput win.
func (m *Model) Fit(train [][]float64, cfg TrainConfig, rng *rand.Rand) (float64, error) {
	if len(train) == 0 {
		return 0, fmt.Errorf("autoencoder: empty training set")
	}
	if cfg.Epochs <= 0 {
		return 0, fmt.Errorf("autoencoder: epochs must be positive")
	}
	bs := cfg.BatchSize
	if bs < 1 {
		bs = 1
	}
	for i, x := range train {
		if len(x) != m.inputDim {
			return 0, fmt.Errorf("%w: training week %d has %d readings, want %d", mat.ErrShape, i, len(x), m.inputDim)
		}
	}
	opt := newOptimizer(cfg)

	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	var (
		last float64
		xb   = new(mat.Matrix)
		grad = new(mat.Matrix)
	)
	for e := 0; e < cfg.Epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var total float64
		for start := 0; start < len(order); start += bs {
			end := start + bs
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			xb.Reshape(len(batch), m.inputDim)
			for k, idx := range batch {
				copy(xb.Data[k*m.inputDim:(k+1)*m.inputDim], train[idx])
			}
			out, err := m.Net.ForwardBatch(xb)
			if err != nil {
				return 0, fmt.Errorf("training %s: %w", m.ModelName, err)
			}
			loss, err := nn.MSELossBatch(out, xb, grad)
			if err != nil {
				return 0, err
			}
			if _, err := m.Net.BackwardBatch(grad); err != nil {
				return 0, err
			}
			if err := opt.Step(m.Net.Params()); err != nil {
				return 0, err
			}
			total += loss * float64(len(batch))
		}
		last = total / float64(len(train))
	}

	// Fit the scorer on per-point reconstruction errors of the training set,
	// reconstructing through the vectorised inference path in fitBatch-sized
	// chunks (point order matches the sequential loop exactly).
	const fitBatch = 32
	errs := make([][]float64, 0, len(train)*m.inputDim)
	var ws nn.BatchScratch
	for start := 0; start < len(train); start += fitBatch {
		end := start + fitBatch
		if end > len(train) {
			end = len(train)
		}
		xb.Reshape(end-start, m.inputDim)
		for k, x := range train[start:end] {
			copy(xb.Data[k*m.inputDim:(k+1)*m.inputDim], x)
		}
		rec, err := m.Net.InferBatch(&ws, xb)
		if err != nil {
			return 0, err
		}
		for k := 0; k < xb.Rows; k++ {
			rrow, xrow := rec.Row(k), xb.Row(k)
			for i := range xrow {
				errs = append(errs, []float64{rrow[i] - xrow[i]})
			}
		}
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

// Detect implements anomaly.Detector for frames of width 1 (univariate):
// DetectBatch of one window.
func (m *Model) Detect(frames [][]float64) (anomaly.Verdict, error) {
	vs, err := m.DetectBatch([][][]float64{frames})
	if err != nil {
		return anomaly.Verdict{}, err
	}
	return vs[0], nil
}

// detectScratch is the per-call workspace of DetectBatch, leased from a
// pool so concurrent batch detections stay allocation-free in steady state
// without sharing any mutable state.
type detectScratch struct {
	xb     mat.Matrix
	ws     nn.BatchScratch
	scores []float64
}

var detectScratchPool = sync.Pool{New: func() any { return new(detectScratch) }}

// DetectBatch implements anomaly.BatchDetector: it judges every window in
// one vectorised pass — all windows reconstructed through one batched
// forward, all B·T point errors scored through one matrix scoring call. A
// window's verdict does not depend on the batch around it, and the call is
// safe for concurrent use (each call leases its own scratch).
func (m *Model) DetectBatch(windows [][][]float64) ([]anomaly.Verdict, error) {
	if m.Scorer == nil {
		return nil, fmt.Errorf("autoencoder: %s not fitted", m.ModelName)
	}
	if len(windows) == 0 {
		return nil, nil
	}
	scratch := detectScratchPool.Get().(*detectScratch)
	defer detectScratchPool.Put(scratch)
	xb := scratch.xb.Reshape(len(windows), m.inputDim)
	for w, frames := range windows {
		if len(frames) != m.inputDim {
			return nil, fmt.Errorf("autoencoder: %s expects %d frames, got %d (window %d)", m.ModelName, m.inputDim, len(frames), w)
		}
		row := xb.Row(w)
		for i, f := range frames {
			if len(f) != 1 {
				return nil, fmt.Errorf("autoencoder: univariate frame has %d dims (window %d)", len(f), w)
			}
			row[i] = f[0]
		}
	}
	rec, err := m.Net.InferBatch(&scratch.ws, xb)
	if err != nil {
		return nil, err
	}
	// Point errors overwrite the input batch in place (it is no longer
	// needed), viewed as (B·T)×1 for one scoring pass.
	for i, v := range rec.Data {
		xb.Data[i] = v - xb.Data[i]
	}
	pointErrs := &mat.Matrix{Rows: len(xb.Data), Cols: 1, Data: xb.Data}
	scores, err := m.Scorer.ScoreMatrixInto(scratch.scores, pointErrs)
	if err != nil {
		return nil, err
	}
	scratch.scores = scores
	out := make([]anomaly.Verdict, len(windows))
	for w := range out {
		out[w] = m.Scorer.Judge(scores[w*m.inputDim:(w+1)*m.inputDim], m.Conf)
	}
	return out, nil
}

// NumParams implements anomaly.Detector.
func (m *Model) NumParams() int { return m.Net.NumParams() }

// InputDim returns the window width the model was built for — needed to
// rebuild an identical architecture when restoring shipped weights.
func (m *Model) InputDim() int { return m.inputDim }

// FlopsPerWindow implements anomaly.Detector; for an autoencoder the
// window length is fixed by the input width, so T is ignored.
func (m *Model) FlopsPerWindow(int) int64 { return m.Net.FlopsDense() }

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
