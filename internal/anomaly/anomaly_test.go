package anomaly

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func normalErrs(rng *rand.Rand, n, d int) [][]float64 {
	errs := make([][]float64, n)
	for i := range errs {
		e := make([]float64, d)
		for j := range e {
			e[j] = rng.NormFloat64() * 0.1
		}
		errs[i] = e
	}
	return errs
}

func TestFitScorerThresholdIsMin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	errs := normalErrs(rng, 200, 1)
	s, err := FitScorer(errs, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	// No training point scores below the threshold (it is the minimum).
	m, err := mat.NewFromRows(errs)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := s.ScoreMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	atMin := 0
	for _, sc := range scores {
		if sc < s.Threshold {
			t.Fatalf("training score %g below threshold %g", sc, s.Threshold)
		}
		if sc == s.Threshold {
			atMin++
		}
	}
	if atMin != 1 {
		t.Fatalf("%d points at the threshold, want exactly the minimum", atMin)
	}
}

func TestFitScorerEmpty(t *testing.T) {
	if _, err := FitScorer(nil, 0); !errors.Is(err, ErrNoErrors) {
		t.Fatalf("err = %v, want ErrNoErrors", err)
	}
}

func TestScoreOrdersBySeverity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, err := FitScorer(normalErrs(rng, 500, 1), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	mild, err := s.Score([]float64{0.05})
	if err != nil {
		t.Fatal(err)
	}
	severe, err := s.Score([]float64{2.0})
	if err != nil {
		t.Fatal(err)
	}
	if !(severe < mild) {
		t.Fatalf("severe error scored %g, mild %g; severe must be lower", severe, mild)
	}
}

func TestJudgeDetectionAndConfidence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, err := FitScorer(normalErrs(rng, 500, 1), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	conf := DefaultConfidence()

	normalScores := make([]float64, 100)
	for i := range normalScores {
		normalScores[i] = s.Threshold + 1 // all above threshold
	}
	v := s.Judge(normalScores, conf)
	if v.Anomaly || v.Confident {
		t.Fatalf("all-normal window judged %+v", v)
	}
	if v.AnomalousFraction != 0 {
		t.Fatalf("AnomalousFraction = %g, want 0", v.AnomalousFraction)
	}

	// One mildly anomalous point: detection without condition (i) extremity;
	// 1/100 = 1% < 5% so not condition (ii) either.
	mild := append([]float64(nil), normalScores...)
	mild[10] = s.Threshold * 1.5 // threshold is negative: 1.5x is below it but not 2x
	v = s.Judge(mild, conf)
	if !v.Anomaly {
		t.Fatal("point below threshold must flag the window")
	}
	if v.Confident {
		t.Fatal("single mild point must not be confident")
	}

	// Condition (i): one extreme point.
	extreme := append([]float64(nil), normalScores...)
	extreme[0] = s.Threshold * 3
	v = s.Judge(extreme, conf)
	if !v.Anomaly || !v.Confident {
		t.Fatalf("extreme point: verdict %+v, want confident anomaly", v)
	}

	// Condition (ii): many mildly anomalous points (7% > 5%).
	many := append([]float64(nil), normalScores...)
	for i := 0; i < 7; i++ {
		many[i] = s.Threshold * 1.2
	}
	v = s.Judge(many, conf)
	if !v.Anomaly || !v.Confident {
		t.Fatalf("many points: verdict %+v, want confident anomaly", v)
	}
	if v.AnomalousFraction != 0.07 {
		t.Fatalf("AnomalousFraction = %g, want 0.07", v.AnomalousFraction)
	}
}

// TestJudgeNonFiniteScoreIsAnomalous: a window with a NaN or infinite
// reading (sensor dropout, hostile bytes over the wire) reconstructs to a
// non-finite error and must be flagged, confidently, with MinLogPD = -Inf —
// not pass as normal because NaN compares false against the threshold.
func TestJudgeNonFiniteScoreIsAnomalous(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nan, inf := math.NaN(), math.Inf(1)
	for _, dim := range []int{1, 3} {
		s, err := FitScorer(normalErrs(rng, 300, dim), 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			at   int // point of the 40-point window that carries the bad value
			bad  float64
		}{
			{"NaN first", 0, nan},
			{"NaN mid-window", 17, nan},
			{"+Inf reading", 23, inf},
			{"-Inf reading last", 39, -inf},
		} {
			errs := mat.New(40, dim)
			for i := range errs.Data {
				errs.Data[i] = rng.NormFloat64() * 0.01
			}
			errs.Row(tc.at)[dim-1] = tc.bad
			scores, err := s.ScoreMatrix(errs)
			if err != nil {
				t.Fatal(err)
			}
			v := s.Judge(scores, DefaultConfidence())
			if !v.Anomaly || !v.Confident || !math.IsInf(v.MinLogPD, -1) || v.AnomalousFraction != 1.0/40 {
				t.Errorf("dim %d, %s: verdict %+v, want a confident anomaly at -Inf with one anomalous point", dim, tc.name, v)
			}
		}
	}
}

func TestJudgeEmptyWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s, err := FitScorer(normalErrs(rng, 50, 1), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	v := s.Judge(nil, DefaultConfidence())
	if v.Anomaly || v.Confident {
		t.Fatalf("empty window judged %+v", v)
	}
}

func TestMultivariateScorer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, err := FitScorer(normalErrs(rng, 800, 6), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 6 {
		t.Fatalf("Dim = %d, want 6", s.Dim())
	}
	// A far-out 6-dim error must score below threshold.
	far := []float64{1, 1, 1, 1, 1, 1}
	sc, err := s.Score(far)
	if err != nil {
		t.Fatal(err)
	}
	if sc >= s.Threshold {
		t.Fatalf("far point scored %g, threshold %g", sc, s.Threshold)
	}
	if _, err := s.Score([]float64{1}); err == nil {
		t.Fatal("wrong-dim error vector must be rejected")
	}
}

// Property: Judge is monotone — lowering any score can only escalate the
// verdict (normal → anomaly → confident), never de-escalate it.
func TestQuickJudgeMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s, err := FitScorer(normalErrs(rng, 300, 1), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	conf := DefaultConfidence()
	rank := func(v Verdict) int {
		switch {
		case v.Confident:
			return 2
		case v.Anomaly:
			return 1
		default:
			return 0
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = s.Threshold + r.NormFloat64()*5
		}
		before := rank(s.Judge(scores, conf))
		lowered := append([]float64(nil), scores...)
		lowered[r.Intn(n)] -= r.Float64() * 100
		after := rank(s.Judge(lowered, conf))
		return after >= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
