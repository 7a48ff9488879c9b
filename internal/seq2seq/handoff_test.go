package seq2seq

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/features"
)

// TestDetectKept pins the one-pass method to its two halves: the state keep
// sees for window i is EncodedState's bits, each window is offered once, a
// kept window's verdict is DetectBatch's and a rejected one's is zero —
// at batch 1, 3 and 32, for the LSTM and the BiLSTM encoder, with keep
// rejecting none, all, then every other window. A keep error stops the call
// and comes back.
func TestDetectKept(t *testing.T) {
	for _, tier := range []Tier{TierIoT, TierCloud} {
		m := fittedSeq2Seq(t, tier)
		var _ anomaly.HandoffDetector = m
		rng := rand.New(rand.NewSource(13))
		for _, B := range []int{1, 3, 32} {
			windows := make([][][]float64, B)
			states := make([][]float64, B)
			for i := range windows {
				windows[i] = syntheticWindow(16, 4, rng, float64(i%3))
				z, err := m.EncodedState(windows[i])
				if err != nil {
					t.Fatal(err)
				}
				states[i] = z
			}
			want, err := m.DetectBatch(windows)
			if err != nil {
				t.Fatal(err)
			}
			for _, rule := range []struct {
				name string
				keep func(i int) bool
			}{
				{"none rejected", func(int) bool { return true }},
				{"all rejected", func(int) bool { return false }},
				{"every other rejected", func(i int) bool { return i%2 == 0 }},
			} {
				seen := make([]int, B)
				got, err := m.DetectKept(windows, func(i int, z []float64) (bool, error) {
					seen[i]++
					if len(z) != len(states[i]) {
						t.Fatalf("%s B=%d window %d: state width %d, want %d", tier, B, i, len(z), len(states[i]))
					}
					for j := range z {
						if math.Float64bits(z[j]) != math.Float64bits(states[i][j]) {
							t.Fatalf("%s B=%d window %d: state[%d] = %g, EncodedState %g", tier, B, i, j, z[j], states[i][j])
						}
					}
					return rule.keep(i), nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != B {
					t.Fatalf("%s B=%d %s: %d verdicts", tier, B, rule.name, len(got))
				}
				for i := range windows {
					if seen[i] != 1 {
						t.Fatalf("%s B=%d %s: window %d offered %d times", tier, B, rule.name, i, seen[i])
					}
					wantV := anomaly.Verdict{}
					if rule.keep(i) {
						wantV = want[i]
					}
					if got[i] != wantV {
						t.Fatalf("%s B=%d %s window %d: %+v, want %+v", tier, B, rule.name, i, got[i], wantV)
					}
				}
			}
			stop := errors.New("policy failed")
			_, err = m.DetectKept(windows, func(i int, _ []float64) (bool, error) {
				if i == B/2 {
					return false, stop
				}
				return true, nil
			})
			if !errors.Is(err, stop) {
				t.Fatalf("%s B=%d: keep error came back as %v", tier, B, err)
			}
		}
	}
}

// TestModelIsExtractor checks the model serves as the policy's context
// extractor: Context is EncodedState, Dim is StateDim, and a malformed
// window is an error, not a context.
func TestModelIsExtractor(t *testing.T) {
	m := fittedSeq2Seq(t, TierIoT)
	var e features.Extractor = m
	w := syntheticWindow(16, 4, rand.New(rand.NewSource(14)), 0)
	ctx, err := e.Context(w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.EncodedState(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctx) != e.Dim() || e.Dim() != m.StateDim() {
		t.Fatalf("context width %d, Dim %d, StateDim %d", len(ctx), e.Dim(), m.StateDim())
	}
	for j := range ctx {
		if math.Float64bits(ctx[j]) != math.Float64bits(want[j]) {
			t.Fatalf("Context[%d] = %g, EncodedState %g", j, ctx[j], want[j])
		}
	}
	w[3] = []float64{1, 2, 3}
	if _, err := e.Context(w); err == nil {
		t.Fatal("a frame of the wrong width must error")
	}
}
