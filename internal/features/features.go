// Package features extracts the contextual information the policy network
// consumes. The paper keeps the policy input deliberately small so the
// network runs fast on IoT devices: for univariate data the context is the
// min, max, mean and standard deviation of each day's readings; for
// multivariate data it is the encoded state of the IoT model's LSTM
// encoder (the IoT seq2seq.Model is itself the Extractor; see
// rnn.Seq2Seq.EncodedState).
package features

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mat"
)

// UnivariateDim is the context width for weekly power samples: four
// statistics per day over seven days.
const UnivariateDim = 4 * dataset.DaysPerWeek

// Univariate extracts the paper's per-day statistics from a weekly sample
// of ReadingsPerWeek standardised values: [min max mean std] × 7 days.
func Univariate(week []float64) ([]float64, error) {
	if len(week) != dataset.ReadingsPerWeek {
		return nil, fmt.Errorf("%w: univariate context needs %d readings, got %d",
			mat.ErrShape, dataset.ReadingsPerWeek, len(week))
	}
	out := make([]float64, 0, UnivariateDim)
	for d := 0; d < dataset.DaysPerWeek; d++ {
		day := week[d*dataset.ReadingsPerDay : (d+1)*dataset.ReadingsPerDay]
		min, max := mat.MinMaxVec(day)
		out = append(out, min, max, mat.MeanVec(day), mat.StdVec(day))
	}
	return out, nil
}

// Extractor maps a detection sample (frames, T×D) to a policy-network
// context state. Implementations must be cheap enough to run at the IoT
// layer.
type Extractor interface {
	// Context returns the state vector for one sample.
	Context(frames [][]float64) ([]float64, error)
	// Dim is the context width.
	Dim() int
}

// UnivariateExtractor adapts Univariate to frames with a single dimension
// per step (the shape detectors consume).
type UnivariateExtractor struct{}

// Context implements Extractor.
func (UnivariateExtractor) Context(frames [][]float64) ([]float64, error) {
	week := make([]float64, len(frames))
	for i, f := range frames {
		if len(f) != 1 {
			return nil, fmt.Errorf("%w: univariate frame has %d dims", mat.ErrShape, len(f))
		}
		week[i] = f[0]
	}
	return Univariate(week)
}

// Dim implements Extractor.
func (UnivariateExtractor) Dim() int { return UnivariateDim }
