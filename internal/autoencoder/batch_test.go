package autoencoder

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/mat"
	"repro/internal/nn"
)

// trainWeeks synthesises n smooth "normal" weeks of width dim.
func trainWeeks(n, dim int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, n)
	for w := range out {
		week := make([]float64, dim)
		phase := rng.Float64() * 2 * math.Pi
		for i := range week {
			week[i] = math.Sin(2*math.Pi*float64(i)/float64(dim)+phase) + 0.05*rng.NormFloat64()
		}
		out[w] = week
	}
	return out
}

func toFrames(week []float64) [][]float64 {
	frames := make([][]float64, len(week))
	for i, v := range week {
		frames[i] = []float64{v}
	}
	return frames
}

func fittedModel(t testing.TB, bs int) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	m, err := New(TierEdge, 84, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 10
	cfg.BatchSize = bs
	if _, err := m.Fit(trainWeeks(24, 84, rng), cfg, rng); err != nil {
		t.Fatal(err)
	}
	return m
}

// refDetect is the scalar reference for one window: the per-sample forward,
// one LogPDF per point and Judge — what Detect computed before it became
// DetectBatch of one.
func refDetect(t *testing.T, m *Model, frames [][]float64) anomaly.Verdict {
	t.Helper()
	x := make([]float64, len(frames))
	for i, f := range frames {
		x[i] = f[0]
	}
	rec, err := m.Net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, len(x))
	for i := range x {
		if scores[i], err = m.Scorer.Score([]float64{rec[i] - x[i]}); err != nil {
			t.Fatal(err)
		}
	}
	return m.Scorer.Judge(scores, m.Conf)
}

// TestDetectBatchMatchesDetect pins batch-size invariance of the one
// inference path on full-precision, fp16- and int8-rounded weights: the
// verdict for row r of a batch of 16 is bit-identical to the same window as
// a batch of 1 (Detect), and both to the scalar reference.
func TestDetectBatchMatchesDetect(t *testing.T) {
	for _, mode := range []nn.QuantMode{nn.QuantNone, nn.QuantFP16, nn.QuantInt8} {
		m := fittedModel(t, 1)
		m.QuantizeMode(mode)
		rng := rand.New(rand.NewSource(7))
		weeks := trainWeeks(16, 84, rng)
		// Make some windows anomalous so both verdict polarities are covered.
		for i := 0; i < len(weeks); i += 3 {
			weeks[i][10] += 4
			weeks[i][11] += 4
		}
		windows := make([][][]float64, len(weeks))
		for i, w := range weeks {
			windows[i] = toFrames(w)
		}
		got, err := m.DetectBatch(windows)
		if err != nil {
			t.Fatal(err)
		}
		sawAnomaly, sawNormal := false, false
		for i, w := range windows {
			one, err := m.Detect(w)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != one {
				t.Fatalf("%v window %d: batch of 16 %+v vs batch of 1 %+v", mode, i, got[i], one)
			}
			if want := refDetect(t, m, w); got[i] != want {
				t.Fatalf("%v window %d: batch %+v vs scalar reference %+v", mode, i, got[i], want)
			}
			if one.Anomaly {
				sawAnomaly = true
			} else {
				sawNormal = true
			}
		}
		if !sawAnomaly || !sawNormal {
			t.Fatalf("%v: test windows did not cover both verdicts (anomaly=%v normal=%v)", mode, sawAnomaly, sawNormal)
		}
	}
}

// TestDetectSteadyStateAllocs keeps the per-window scalar path from growing
// back: a warm Detect allocates its verdict slice (the scores go into
// pooled scratch), not the thousands of per-point vectors the deleted path
// did. The bound leaves room for the race detector, which drops pooled
// scratch at random.
func TestDetectSteadyStateAllocs(t *testing.T) {
	// The paper-scale weekly window: 672 readings.
	rng := rand.New(rand.NewSource(8))
	m, err := New(TierIoT, 672, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	if _, err := m.Fit(trainWeeks(4, 672, rng), cfg, rng); err != nil {
		t.Fatal(err)
	}
	w := toFrames(trainWeeks(1, 672, rng)[0])
	if _, err := m.Detect(w); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := m.Detect(w); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Detect: %.0f allocations/call", allocs)
	if allocs > 16 {
		t.Fatalf("Detect allocates %.0f objects/call in steady state, want ≤ 16", allocs)
	}
}

// TestFitMinibatchTrains checks that minibatch SGD still learns: a batch-8
// model must reconstruct normal data well enough to flag a gross anomaly.
func TestFitMinibatchTrains(t *testing.T) {
	m := fittedModel(t, 8)
	rng := rand.New(rand.NewSource(11))
	normal := trainWeeks(1, 84, rng)[0]
	v, err := m.Detect(toFrames(normal))
	if err != nil {
		t.Fatal(err)
	}
	if v.Anomaly {
		t.Fatal("minibatch-trained model flags normal data")
	}
	spiked := append([]float64(nil), normal...)
	for i := 20; i < 30; i++ {
		spiked[i] += 6
	}
	v, err = m.Detect(toFrames(spiked))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Anomaly {
		t.Fatal("minibatch-trained model misses a gross anomaly")
	}
}

// TestDetectAllUsesBatchPath checks the anomaly.DetectAll seam dispatches to
// the autoencoder's DetectBatch and returns per-window-identical verdicts.
func TestDetectAllUsesBatchPath(t *testing.T) {
	m := fittedModel(t, 1)
	if _, ok := interface{}(m).(anomaly.BatchDetector); !ok {
		t.Fatal("autoencoder.Model must implement anomaly.BatchDetector")
	}
	rng := rand.New(rand.NewSource(13))
	weeks := trainWeeks(5, 84, rng)
	windows := make([][][]float64, len(weeks))
	for i, w := range weeks {
		windows[i] = toFrames(w)
	}
	got, err := anomaly.DetectAll(m, windows)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range windows {
		want, err := m.Detect(w)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("window %d diverges through DetectAll", i)
		}
	}
}

func TestDetectBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m, err := New(TierEdge, 84, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DetectBatch(make([][][]float64, 1)); err == nil {
		t.Fatal("DetectBatch on an unfitted model must error")
	}
	fitted := fittedModel(t, 1)
	if out, err := fitted.DetectBatch(nil); err != nil || out != nil {
		t.Fatalf("empty batch: got (%v, %v), want (nil, nil)", out, err)
	}
	if _, err := fitted.DetectBatch([][][]float64{make([][]float64, 3)}); err == nil {
		t.Fatal("wrong window length must error")
	}
	bad := toFrames(trainWeeks(1, 84, rng)[0])
	bad[5] = []float64{1, 2}
	if _, err := fitted.DetectBatch([][][]float64{bad}); err == nil {
		t.Fatal("multivariate frame must error")
	}
}

// benchWeeks and the Fit benchmarks below measure the training-throughput
// claim of the batched engine: one epoch of minibatch-32 training vs one
// epoch of per-sample training on identical data and model shape.
func benchFit(b *testing.B, bs int) {
	rng := rand.New(rand.NewSource(1))
	weeks := trainWeeks(128, 672, rng)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.BatchSize = bs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := New(TierCloud, 672, rand.New(rand.NewSource(2)))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.Fit(weeks, cfg, rand.New(rand.NewSource(3))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitPerSample is the legacy trajectory: one optimiser step per
// sample, batch-of-1 matrices.
func BenchmarkFitPerSample(b *testing.B) { benchFit(b, 1) }

// BenchmarkFitBatch32 is minibatch SGD at the paper-scale batch: one
// batch-averaged step per 32 samples through the blocked kernels.
func BenchmarkFitBatch32(b *testing.B) { benchFit(b, 32) }

// BenchmarkFitCloudStep times one per-sample training step of AE-Cloud
// (672-336-112-32-112-336-672, Fit's optimiser) split into its three
// phases, reported as fwd_us, bwd_us and opt_us per step.
func BenchmarkFitCloudStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	weeks := trainWeeks(16, 672, rng)
	m, err := New(TierCloud, 672, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	opt := newOptimizer(DefaultTrainConfig())
	params := m.Net.Params()
	xb := mat.New(1, 672)
	grad := new(mat.Matrix)
	var fwd, bwd, upd time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(xb.Data, weeks[i%len(weeks)])
		t0 := time.Now()
		out, err := m.Net.ForwardBatch(xb)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, err := nn.MSELossBatch(out, xb, grad); err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		if _, err := m.Net.BackwardBatch(grad); err != nil {
			b.Fatal(err)
		}
		t3 := time.Now()
		if err := opt.Step(params); err != nil {
			b.Fatal(err)
		}
		t4 := time.Now()
		fwd += t1.Sub(t0)
		bwd += t3.Sub(t2)
		upd += t4.Sub(t3)
	}
	n := float64(b.N)
	b.ReportMetric(fwd.Seconds()*1e6/n, "fwd_us")
	b.ReportMetric(bwd.Seconds()*1e6/n, "bwd_us")
	b.ReportMetric(upd.Seconds()*1e6/n, "opt_us")
}
