// Package repro is a from-scratch Go reproduction of "Contextual-Bandit
// Anomaly Detection for IoT Data in Distributed Hierarchical Edge
// Computing" (Ngo, Luo, Chaouchi, Quek — ICDCS 2020, arXiv:2004.06896).
//
// The package exposes the complete system: synthetic replacements for the
// paper's datasets, the univariate autoencoder suite (AE-IoT/Edge/Cloud),
// the multivariate seq2seq suite (LSTM-seq2seq-IoT/Edge,
// BiLSTM-seq2seq-Cloud), Gaussian logPD anomaly scoring, a calibrated
// three-layer HEC simulator, the four baseline schemes, and the proposed
// contextual-bandit adaptive scheme trained with REINFORCE.
//
// Quick start — batch reports:
//
//	sys, err := repro.Build(repro.Univariate, repro.WithFast())
//	if err != nil { ... }
//	rows, err := sys.SchemeRows()   // Table II
//	models := sys.ModelRows()       // Table I
//
// Quick start — online detection:
//
//	sess, err := sys.Open(repro.SchemeAdaptive)
//	if err != nil { ... }
//	defer sess.Close()
//	det, err := sess.Detect(ctx, sys.TestSamples[0].Frames)
//
// Build is the unified entry point (see Option for the knobs); Open starts
// a streaming Session that judges windows one at a time or in minibatches,
// locally or against remote tiers, with full context.Context cancellation.
// Errors carry the repro.Error taxonomy (ErrCanceled, ErrDeadline,
// ErrRemote, ErrBadInput) and compose with errors.Is/As.
//
// See the examples/ directory for runnable end-to-end scenarios and
// cmd/hecbench for the full benchmark harness.
package repro

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/anomaly"
	"repro/internal/autoencoder"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/hec"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/seq2seq"
)

// Kind selects a dataset/model family.
type Kind int

// The two data kinds evaluated in the paper.
const (
	Univariate Kind = iota + 1
	Multivariate
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Univariate:
		return "univariate"
	case Multivariate:
		return "multivariate"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Alpha values from the paper's cost function (eq. 1): 5e-4 for the
// univariate dataset and 3.5e-4 for the multivariate dataset.
const (
	AlphaUnivariate   = 5e-4
	AlphaMultivariate = 3.5e-4
)

// System is a fully built HEC anomaly-detection system: trained detectors
// deployed across the hierarchy, a trained policy network, and the
// evaluation splits, ready to regenerate the paper's tables and figures.
type System struct {
	Kind       Kind
	Deployment *hec.Deployment
	Policy     *policy.Network
	Extractor  features.Extractor
	// Alpha is the delay-cost weight of this system's reward.
	Alpha float64
	// TestSamples is the held-out evaluation split.
	TestSamples []hec.Sample
	// TestMeta carries per-sample annotations (hardness / activity) for
	// reporting; parallel to TestSamples.
	TestMeta []SampleMeta

	testPC *hec.Precomputed
}

// SampleMeta annotates one evaluation sample.
type SampleMeta struct {
	Hardness dataset.Hardness
	// Activity is set for multivariate samples only.
	Activity dataset.Activity
}

// ModelRow is one row of the paper's Table I.
type ModelRow struct {
	Layer     hec.Layer
	Name      string
	NumParams int
	Accuracy  float64
	F1        float64
	// ExecMs is the model's execution time on its own layer's device.
	ExecMs float64
}

// SchemeRow is one row of the paper's Table II.
type SchemeRow struct {
	Scheme string
	F1     float64
	// Accuracy is in [0,1].
	Accuracy float64
	// MeanDelayMs is the average end-to-end detection delay.
	MeanDelayMs float64
	// RewardSum is the summed per-sample reward (the Table II form).
	RewardSum float64
	// LayerShares is the fraction of samples resolved per layer.
	LayerShares [hec.NumLayers]float64
	// Result retains the full per-sample series (Fig. 3b panels).
	Result *hec.Result
}

// Precomputed exposes the cached test-split detections for custom analyses.
func (s *System) Precomputed() *hec.Precomputed { return s.testPC }

// ModelRows regenerates Table I for this system: per-model parameter count,
// standalone accuracy and F1 on the test split, and execution time at the
// model's home layer.
func (s *System) ModelRows() ([]ModelRow, error) {
	rows := make([]ModelRow, 0, hec.NumLayers)
	for l := hec.Layer(0); l < hec.NumLayers; l++ {
		det := s.Deployment.Detectors[l]
		var conf metrics.Confusion
		for i, sample := range s.TestSamples {
			conf.Add(s.testPC.Outcomes[i][l].Verdict.Anomaly, sample.Label)
		}
		var exec float64
		if len(s.TestSamples) > 0 {
			exec = s.testPC.Outcomes[0][l].ExecMs
		}
		rows = append(rows, ModelRow{
			Layer:     l,
			Name:      det.Name(),
			NumParams: det.NumParams(),
			Accuracy:  conf.Accuracy(),
			F1:        conf.F1(),
			ExecMs:    exec,
		})
	}
	return rows, nil
}

// SchemeRows regenerates Table II: the five schemes evaluated on the test
// split with this system's α. The schemes run concurrently (they replay
// read-only precomputed outcomes), which is the ParallelEvaluate engine;
// rows come back in the paper's scheme order regardless.
func (s *System) SchemeRows() ([]SchemeRow, error) {
	return s.SchemeRowsContext(context.Background())
}

// SchemeRowsContext is SchemeRows with cancellation: a done ctx aborts the
// concurrent scheme replays and returns an error satisfying
// errors.Is(err, ErrCanceled) (or ErrDeadline) and ctx.Err().
func (s *System) SchemeRowsContext(ctx context.Context) ([]SchemeRow, error) {
	schemes := hec.AllSchemes(s.Policy)
	results, err := hec.ParallelEvaluate(ctx, schemes, s.testPC, s.Alpha)
	if err != nil {
		return nil, wrapErr("evaluating schemes", err)
	}
	rows := make([]SchemeRow, 0, len(results))
	for _, res := range results {
		rows = append(rows, SchemeRow{
			Scheme:      res.Scheme,
			F1:          res.Confusion.F1(),
			Accuracy:    res.Confusion.Accuracy(),
			MeanDelayMs: res.Delays.Mean(),
			RewardSum:   res.Reward.Sum(),
			LayerShares: res.LayerShares(),
			Result:      res,
		})
	}
	return rows, nil
}

// ResultPanel evaluates one scheme and returns its full per-sample series —
// the data behind the demo's streaming result panel (Fig. 3b).
func (s *System) ResultPanel(scheme hec.Scheme) (*hec.Result, error) {
	return hec.Evaluate(context.Background(), scheme, s.testPC, s.Alpha)
}

// UniSampleFrames converts a weekly univariate sample into the T×1 frame
// shape detectors consume.
func UniSampleFrames(s dataset.UniSample) [][]float64 {
	frames := make([][]float64, len(s.Values))
	for i, v := range s.Values {
		frames[i] = []float64{v}
	}
	return frames
}

// derivedRng returns a child RNG with a label-stable seed, so every
// component trains from an independent, reproducible stream.
func derivedRng(seed int64, label string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, b := range []byte(label) {
		h ^= int64(b)
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}

// assertDetector statically checks the suites satisfy anomaly.Detector.
var (
	_ anomaly.Detector = (*autoencoder.Model)(nil)
	_ anomaly.Detector = (*seq2seq.Model)(nil)
)
