package anomaly

import (
	"fmt"

	"repro/internal/mat"
)

// ScorerState is the portable form of a fitted Scorer: the error Gaussian's
// moments plus the detection threshold. It is plain data, so a scorer
// fitted on one node can ship to peers alongside model weights —
// without it a restored model could reconstruct windows but not judge them.
type ScorerState struct {
	// Mean is the error Gaussian's µ.
	Mean []float64
	// Cov is Σ in row-major order (len = dim²).
	Cov []float64
	// Threshold is the minimum logPD observed on normal training errors.
	Threshold float64
}

// State captures the scorer for serialisation.
func (s *Scorer) State() *ScorerState {
	return &ScorerState{
		Mean: append([]float64(nil), s.gauss.Mean...),
		// Covariance already returns a private copy; hand it over directly.
		Cov:       s.gauss.Covariance().Data,
		Threshold: s.Threshold,
	}
}

// ScorerFromState rebuilds a scorer previously captured with State.
func ScorerFromState(st *ScorerState) (*Scorer, error) {
	if st == nil {
		return nil, fmt.Errorf("anomaly: nil scorer state")
	}
	d := len(st.Mean)
	if d == 0 || len(st.Cov) != d*d {
		return nil, fmt.Errorf("anomaly: scorer state has mean dim %d but %d covariance entries", d, len(st.Cov))
	}
	cov, err := mat.NewFromSlice(d, d, append([]float64(nil), st.Cov...))
	if err != nil {
		return nil, fmt.Errorf("anomaly: rebuilding covariance: %w", err)
	}
	g, err := mat.NewGaussian(st.Mean, cov)
	if err != nil {
		return nil, fmt.Errorf("anomaly: rebuilding error Gaussian: %w", err)
	}
	return &Scorer{gauss: g, Threshold: st.Threshold}, nil
}
