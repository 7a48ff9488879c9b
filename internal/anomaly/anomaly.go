// Package anomaly implements the paper's anomaly-scoring pipeline: fit a
// Gaussian N(µ, Σ) to the reconstruction errors of normal data, use the log
// probability density (logPD) of each point's reconstruction error as its
// anomaly score, threshold at the minimum logPD seen on the training set,
// and apply the paper's two-part confidence rule for the Successive scheme.
package anomaly

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
)

// Verdict is the outcome of judging one window of data.
type Verdict struct {
	// Anomaly reports whether the window is flagged anomalous (at least one
	// point scored below the detection threshold).
	Anomaly bool
	// Confident reports whether the detection meets the paper's confidence
	// conditions: (i) some point's logPD is below Factor× the threshold, or
	// (ii) more than Fraction of the window's points are anomalous. The
	// Successive scheme stops escalating on a confident verdict.
	Confident bool
	// MinLogPD is the most anomalous (lowest) point score in the window.
	MinLogPD float64
	// AnomalousFraction is the share of points scoring below the threshold.
	AnomalousFraction float64
}

// Confidence parameterises the confident-detection rule. The paper's
// example values are Factor = 2 and Fraction = 0.05.
type Confidence struct {
	// Factor scales the (negative) threshold for condition (i); a point
	// with logPD < Factor·threshold is extreme enough to be confident.
	Factor float64
	// Fraction is the share of anomalous points beyond which condition (ii)
	// declares confidence.
	Fraction float64
}

// DefaultConfidence matches the example parameters given in the paper.
func DefaultConfidence() Confidence { return Confidence{Factor: 2, Fraction: 0.05} }

// Scorer converts per-point reconstruction-error vectors into logPD scores
// and window verdicts. Fit it on the reconstruction errors of *normal*
// training data only.
type Scorer struct {
	gauss *mat.Gaussian
	// Threshold is the minimum logPD observed on the normal training
	// errors — the paper's outlier threshold. Scores below it are anomalous.
	Threshold float64
}

// ErrNoErrors is returned when fitting a scorer with no error samples.
var ErrNoErrors = errors.New("anomaly: no reconstruction errors to fit")

// FitScorer fits the error Gaussian and detection threshold. errs holds one
// reconstruction-error vector per data point (dimension 1 for univariate
// data, D for multivariate). reg is the covariance ridge passed through to
// the Gaussian fit.
func FitScorer(errs [][]float64, reg float64) (*Scorer, error) {
	if len(errs) == 0 {
		return nil, ErrNoErrors
	}
	g, err := mat.FitGaussian(errs, reg)
	if err != nil {
		return nil, fmt.Errorf("anomaly: fitting error distribution: %w", err)
	}
	s := &Scorer{gauss: g}
	min := 0.0
	for i, e := range errs {
		lp, err := g.LogPDF(e)
		if err != nil {
			return nil, err
		}
		if i == 0 || lp < min {
			min = lp
		}
	}
	s.Threshold = min
	return s, nil
}

// Score returns the logPD anomaly score of one error vector (more negative
// means more anomalous).
func (s *Scorer) Score(errVec []float64) (float64, error) {
	return s.gauss.LogPDF(errVec)
}

// ScoreMatrix scores a whole error matrix at once — one reconstruction-error
// vector per row — through the vectorised Gaussian kernel. The scores are
// bit-identical to per-row Score calls but reuse the factor-solve scratch
// across the matrix, which removes the per-point allocations that dominate
// low-dimensional scoring. Safe for concurrent use: the scorer itself is
// read-only after fitting.
func (s *Scorer) ScoreMatrix(errs *mat.Matrix) ([]float64, error) {
	return s.ScoreMatrixInto(nil, errs)
}

// ScoreMatrixInto is ScoreMatrix writing the scores into dst's storage,
// resized to one score per row (reallocated only when dst is too short),
// and returning it — the form detectors use to score into pooled scratch.
func (s *Scorer) ScoreMatrixInto(dst []float64, errs *mat.Matrix) ([]float64, error) {
	scores, err := s.gauss.LogPDFRowsInto(dst, errs)
	if err != nil {
		return nil, fmt.Errorf("anomaly: scoring matrix: %w", err)
	}
	return scores, nil
}

// Dim returns the error-vector dimensionality the scorer was fitted on.
func (s *Scorer) Dim() int { return s.gauss.Dim() }

// Judge applies the detection threshold and confidence rule to a window's
// point scores. A NaN or infinite score — what a NaN or infinite reading
// reconstructs to — compares false against any threshold, so it is judged
// as the most anomalous score there is, -Inf: a window the model cannot
// score is never "normal".
func (s *Scorer) Judge(scores []float64, conf Confidence) Verdict {
	if len(scores) == 0 {
		return Verdict{}
	}
	v := Verdict{MinLogPD: math.Inf(1)}
	anomalous := 0
	for _, sc := range scores {
		if math.IsNaN(sc) || math.IsInf(sc, 0) {
			sc = math.Inf(-1)
		}
		if sc < v.MinLogPD {
			v.MinLogPD = sc
		}
		if sc < s.Threshold {
			anomalous++
		}
	}
	v.AnomalousFraction = float64(anomalous) / float64(len(scores))
	v.Anomaly = anomalous > 0
	// Condition (i): an extreme point. The threshold is negative (it is a
	// log density of a continuous distribution at its tail), so Factor×
	// moves it further into the tail.
	extreme := v.MinLogPD < conf.Factor*s.Threshold
	// Condition (ii): many anomalous points.
	many := v.AnomalousFraction > conf.Fraction
	v.Confident = extreme || many
	return v
}

// Detector is one anomaly-detection model deployed at an HEC layer: it
// consumes a window of frames (T×D; univariate data uses D = 1) and returns
// a verdict. Implementations wrap a reconstruction model plus a fitted
// Scorer.
type Detector interface {
	// Name identifies the model (e.g. "AE-IoT", "BiLSTM-seq2seq-Cloud").
	Name() string
	// Detect judges one window. frames is valid only during the call: a
	// serving node decodes each request into recycled storage and reuses
	// it once the verdict is written, so an implementation that needs the
	// readings afterwards copies them.
	Detect(frames [][]float64) (Verdict, error)
	// NumParams reports the trainable-parameter count (the paper's
	// "#Parameters", a memory-footprint proxy).
	NumParams() int
	// FlopsPerWindow estimates inference cost for a T-frame window, which
	// the HEC compute model turns into execution time.
	FlopsPerWindow(T int) int64
}

// BatchDetector is implemented by detectors that judge many windows in one
// vectorised pass through the batched tensor engine. DetectBatch must return
// one verdict per window, each equal to Detect on that window (the
// repository's models implement Detect as DetectBatch of one), and must be
// safe for concurrent use like Detect. As in Detect, windows is valid only
// during the call.
type BatchDetector interface {
	Detector
	DetectBatch(windows [][][]float64) ([]Verdict, error)
}

// Keep decides, from window i's encoder state z, whether a HandoffDetector
// goes on to judge the window. z is valid only during the call.
type Keep func(i int, z []float64) (bool, error)

// HandoffDetector is a BatchDetector whose model encodes each window into a
// state before judging it, and that hands the state out on the way: the
// multivariate IoT model, whose encoder state is also the policy's context.
// DetectKept encodes every window once, calls keep with each window's state
// (the bits its EncodedState would return), and judges only the windows keep
// accepts; the verdicts of the others are left zero. A keep error stops the
// call and is returned. A nil keep keeps every window, which makes
// DetectKept DetectBatch. Implementations must be comparable: Handoff
// recognises the model that is both a caller's extractor and its detector
// by identity.
type HandoffDetector interface {
	BatchDetector
	DetectKept(windows [][][]float64, keep Keep) ([]Verdict, error)
}

// Handoff returns d as a HandoffDetector when the caller's context
// extractor ext is d itself — the one case in which a window's context is
// the state d computes on the way to its verdict, so the caller can take
// both from one DetectKept pass. Any other pairing, including a wrapped
// extractor, needs the context and the detection separately.
func Handoff(d Detector, ext any) (HandoffDetector, bool) {
	hd, ok := d.(HandoffDetector)
	if !ok || any(hd) != ext {
		return nil, false
	}
	return hd, true
}

// DetectAll judges every window, in one DetectBatch call when the detector
// supports batching and by sequential Detect calls otherwise. It is the
// batching seam for callers that hold a plain Detector (precompute engine,
// transport servers, cluster devices).
func DetectAll(d Detector, windows [][][]float64) ([]Verdict, error) {
	if bd, ok := d.(BatchDetector); ok {
		return bd.DetectBatch(windows)
	}
	out := make([]Verdict, len(windows))
	for i, w := range windows {
		v, err := d.Detect(w)
		if err != nil {
			return nil, fmt.Errorf("anomaly: detecting window %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}
