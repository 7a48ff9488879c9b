package seq2seq

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/nn"
)

// fittedSuite trains one small model per tier on synthetic sinusoid windows.
func fittedSeq2Seq(t *testing.T, tier Tier) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	m, err := New(tier, Sizing{InSize: 4, BaseHidden: 6, DropRate: 0.2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	train := make([][][]float64, 12)
	for w := range train {
		train[w] = syntheticWindow(16, 4, rng, 0)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 4
	if _, err := m.Fit(train, cfg, rng); err != nil {
		t.Fatal(err)
	}
	return m
}

func syntheticWindow(T, D int, rng *rand.Rand, spike float64) [][]float64 {
	w := make([][]float64, T)
	phase := rng.Float64()
	for t := range w {
		f := make([]float64, D)
		for j := range f {
			f[j] = math.Sin(2*math.Pi*(float64(t)/float64(T)+phase)) + 0.05*rng.NormFloat64() + spike
		}
		w[t] = f
	}
	return w
}

// TestSeq2SeqDetectBatchMatchesDetect pins batch-size invariance of the one
// multivariate inference path — including the BiLSTM cloud encoder — on
// full-precision, fp16- and int8-rounded weights, across a mix of normal and
// anomalous windows: the verdict for row r of a batch of 16 is bit-identical
// to the same window as a batch of 1 (Detect).
func TestSeq2SeqDetectBatchMatchesDetect(t *testing.T) {
	for _, tier := range []Tier{TierIoT, TierCloud} {
		t.Run(tier.String(), func(t *testing.T) {
			for _, mode := range []nn.QuantMode{nn.QuantNone, nn.QuantFP16, nn.QuantInt8} {
				m := fittedSeq2Seq(t, tier)
				m.QuantizeMode(mode)
				rng := rand.New(rand.NewSource(9))
				windows := make([][][]float64, 16)
				for i := range windows {
					spike := 0.0
					if i%2 == 1 {
						spike = 5
					}
					windows[i] = syntheticWindow(16, 4, rng, spike)
				}
				got, err := m.DetectBatch(windows)
				if err != nil {
					t.Fatal(err)
				}
				for i, w := range windows {
					one, err := m.Detect(w)
					if err != nil {
						t.Fatal(err)
					}
					if got[i] != one {
						t.Fatalf("%v window %d: batch of 16 %+v vs batch of 1 %+v", mode, i, got[i], one)
					}
				}
			}
		})
	}
}

// TestSeq2SeqDetectBatchMixedLengths checks the internal grouping: a batch
// mixing window lengths — runs of equal length and lone windows — must come
// back in input order, each verdict bit-identical to the window judged alone.
func TestSeq2SeqDetectBatchMixedLengths(t *testing.T) {
	m := fittedSeq2Seq(t, TierIoT)
	rng := rand.New(rand.NewSource(10))
	windows := [][][]float64{
		syntheticWindow(16, 4, rng, 0),
		syntheticWindow(8, 4, rng, 4),
		syntheticWindow(16, 4, rng, 4),
		syntheticWindow(16, 4, rng, 0),
		syntheticWindow(8, 4, rng, 0),
	}
	got, err := m.DetectBatch(windows)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(windows) {
		t.Fatalf("%d verdicts for %d windows", len(got), len(windows))
	}
	for i, w := range windows {
		want, err := m.Detect(w)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("window %d (len %d): mixed batch %+v vs alone %+v", i, len(w), got[i], want)
		}
	}
	var _ anomaly.BatchDetector = m // the suite must plug into DetectAll
}

// TestSeq2SeqDetectSteadyStateAllocs keeps the per-window scalar path from
// growing back, for the LSTM and the BiLSTM encoder on an MHEALTH-shaped
// window (128×18): a warm Detect allocates its verdicts and nothing else —
// the reconstruction, the errors, the scores and the solver scratch are
// pooled or on the stack, not the thousands of per-step vectors the deleted
// path allocated. The pooled scratch is dropped at random under the race
// detector, so the exact count runs without it.
func TestSeq2SeqDetectSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, tier := range []Tier{TierIoT, TierCloud} {
		rng := rand.New(rand.NewSource(12))
		m, err := New(tier, DefaultSizing(), rng)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultTrainConfig()
		cfg.Epochs = 1
		train := [][][]float64{syntheticWindow(128, 18, rng, 0), syntheticWindow(128, 18, rng, 0)}
		if _, err := m.Fit(train, cfg, rng); err != nil {
			t.Fatal(err)
		}
		w := syntheticWindow(128, 18, rng, 0)
		if _, err := m.Detect(w); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := m.Detect(w); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s Detect: %.0f allocations/call", m.ModelName, allocs)
		if allocs > 1 {
			t.Fatalf("%s: Detect allocates %.0f objects/call in steady state, want ≤ 1", m.ModelName, allocs)
		}
	}
}

func TestSeq2SeqDetectBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, err := New(TierIoT, Sizing{InSize: 4, BaseHidden: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DetectBatch(make([][][]float64, 1)); err == nil {
		t.Fatal("DetectBatch on an unfitted model must error")
	}
	fitted := fittedSeq2Seq(t, TierIoT)
	if out, err := fitted.DetectBatch(nil); err != nil || out != nil {
		t.Fatalf("empty batch: (%v, %v)", out, err)
	}
	bad := [][][]float64{syntheticWindow(8, 4, rng, 0)}
	bad[0][3] = []float64{1, 2, 3, 4, 5}
	if _, err := fitted.DetectBatch(bad); err == nil {
		t.Fatal("wrong frame width must error")
	}
}
