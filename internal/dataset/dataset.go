// Package dataset generates the two synthetic IoT datasets that stand in
// for the paper's evaluation data (see DESIGN.md §2 for the substitution
// rationale):
//
//   - a power-demand series replacing the Keogh power-demand dataset:
//     52-week years of 15-minute readings with a weekday double-peak
//     profile, weekend low profile, and holiday/outage/damped anomalies of
//     graded hardness;
//   - an MHEALTH-like human-activity corpus: 18 channels (two body sensors
//     × accelerometer/gyroscope/magnetometer × 3 axes) sampled at 50 Hz
//     for 12 activities across multiple subjects, windowed 128/64, with
//     walking as the dominant (normal) activity.
//
// All generation is driven by explicit seeds, so every experiment in the
// repository is reproducible bit-for-bit.
package dataset

import (
	"fmt"
	"math"
)

// Hardness grades how difficult an injected anomaly is to detect; the
// adaptive scheme's premise is that different samples need models of
// different capacity.
type Hardness int

// Hardness levels. Easy anomalies are gross signal outages any model
// catches; Medium are profile swaps; Hard are subtle amplitude/timing
// distortions that only high-capacity models reconstruct well enough to
// notice.
const (
	HardnessNone Hardness = iota
	HardnessEasy
	HardnessMedium
	HardnessHard

	// NumHardness is the number of grades, HardnessNone included.
	NumHardness
)

// String implements fmt.Stringer.
func (h Hardness) String() string {
	switch h {
	case HardnessNone:
		return "none"
	case HardnessEasy:
		return "easy"
	case HardnessMedium:
		return "medium"
	case HardnessHard:
		return "hard"
	default:
		return fmt.Sprintf("Hardness(%d)", int(h))
	}
}

// Standardizer holds per-dimension mean and standard deviation fitted on a
// training set, applied everywhere (the paper standardises "to zero mean
// and unit variance for all of the training tasks and datasets").
type Standardizer struct {
	Mean []float64
	Std  []float64
}

// FitStandardizer computes per-dimension statistics over frames (any number
// of samples × D dims). Dimensions with zero variance get Std 1 so the
// transform stays defined.
func FitStandardizer(frames [][]float64, dims int) *Standardizer {
	s := &Standardizer{Mean: make([]float64, dims), Std: make([]float64, dims)}
	n := float64(len(frames))
	if n == 0 {
		for j := range s.Std {
			s.Std[j] = 1
		}
		return s
	}
	for _, f := range frames {
		for j := 0; j < dims; j++ {
			s.Mean[j] += f[j]
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, f := range frames {
		for j := 0; j < dims; j++ {
			d := f[j] - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s
}

// Apply standardises one frame in place and returns it.
func (s *Standardizer) Apply(frame []float64) []float64 {
	for j := range frame {
		frame[j] = (frame[j] - s.Mean[j]) / s.Std[j]
	}
	return frame
}
