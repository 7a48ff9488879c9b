package repro

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/autoencoder"
	"repro/internal/dataset"
	"repro/internal/hec"
	"repro/internal/mat"
	"repro/internal/policy"
	"repro/internal/rnn"
	"repro/internal/seq2seq"
)

// The Table/Figure benchmarks below regenerate the paper's evaluation
// artifacts. Building a system (data generation + model training + policy
// training) happens once per dataset via sync.Once; the measured loop is
// the evaluation step, and the regenerated rows are printed on first use so
// `go test -bench=. -benchmem` doubles as the reproduction harness.
//
// Build scale: paper-faithful splits with training budgets bounded for
// pure-Go BPTT (see DefaultUnivariateOptions / DefaultMultivariateOptions).

var (
	uniOnce sync.Once
	uniSys  *System
	uniErr  error

	multiOnce sync.Once
	multiSys  *System
	multiErr  error
)

func univariateSystem(b *testing.B) *System {
	b.Helper()
	uniOnce.Do(func() {
		uniSys, uniErr = Build(Univariate)
	})
	if uniErr != nil {
		b.Fatal(uniErr)
	}
	return uniSys
}

func multivariateSystem(b *testing.B) *System {
	b.Helper()
	multiOnce.Do(func() {
		// Bound BPTT cost: ~400 training windows keep the full multivariate
		// build under a few minutes in pure Go while covering every subject.
		multiSys, multiErr = Build(Multivariate, WithMultivariate(func(o *MultivariateOptions) {
			o.MaxTrainWindows = 400
			o.Train.Epochs = 6
		}))
	})
	if multiErr != nil {
		b.Fatal(multiErr)
	}
	return multiSys
}

// logView logs one study view of sys, rendered as hecbench prints it.
func logView(b *testing.B, sys *System, view func(StudyResult, io.Writer) error) {
	b.Helper()
	run, err := sys.studyRun(context.Background(), 0)
	if err != nil {
		b.Fatal(err)
	}
	var out strings.Builder
	if err := view(StudyResult{Runs: []StudyRun{run}}, &out); err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + strings.TrimRight(out.String(), "\n"))
}

func printTableIOnce(b *testing.B, sys *System, printed *sync.Once) {
	b.Helper()
	printed.Do(func() { logView(b, sys, StudyResult.WriteTableI) })
}

func printTableIIOnce(b *testing.B, sys *System, printed *sync.Once) {
	b.Helper()
	printed.Do(func() { logView(b, sys, StudyResult.WriteTableII) })
}

var (
	tableIUniPrinted    sync.Once
	tableIMultiPrinted  sync.Once
	tableIIUniPrinted   sync.Once
	tableIIMultiPrinted sync.Once
	fig3bPrinted        sync.Once
)

// BenchmarkTableIUnivariate regenerates Table I (univariate): per-model
// parameters, accuracy, F1 and execution time. The measured loop is the
// model-row computation over the precomputed test split.
func BenchmarkTableIUnivariate(b *testing.B) {
	sys := univariateSystem(b)
	printTableIOnce(b, sys, &tableIUniPrinted)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.ModelRows()
	}
}

// BenchmarkTableIMultivariate regenerates Table I (multivariate).
func BenchmarkTableIMultivariate(b *testing.B) {
	sys := multivariateSystem(b)
	printTableIOnce(b, sys, &tableIMultiPrinted)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.ModelRows()
	}
}

// BenchmarkTableIIUnivariate regenerates Table II (univariate): all five
// schemes' F1, accuracy, delay and summed reward.
func BenchmarkTableIIUnivariate(b *testing.B) {
	sys := univariateSystem(b)
	printTableIIOnce(b, sys, &tableIIUniPrinted)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SchemeRows(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIIMultivariate regenerates Table II (multivariate).
func BenchmarkTableIIMultivariate(b *testing.B) {
	sys := multivariateSystem(b)
	printTableIIOnce(b, sys, &tableIIMultiPrinted)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SchemeRows(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3bSeries regenerates the demo result panel's streaming series
// (prediction vs truth, per-sample delay and action, cumulative accuracy
// and F1) for the adaptive scheme on the univariate system.
func BenchmarkFig3bSeries(b *testing.B) {
	sys := univariateSystem(b)
	fig3bPrinted.Do(func() {
		res, err := sys.ResultPanel(SchemeAdaptive)
		if err != nil {
			b.Fatal(err)
		}
		n := len(res.AccSeries)
		b.Logf("FIG 3b (univariate, adaptive): %d samples", n)
		for c := 1; c <= 5; c++ {
			i := c*n/5 - 1
			b.Logf("after %3d samples: acc=%.4f f1=%.4f", i+1, res.AccSeries[i], res.F1Series[i])
		}
		shares := res.LayerShares()
		b.Logf("layer shares IoT/Edge/Cloud = %.2f/%.2f/%.2f", shares[0], shares[1], shares[2])
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.ResultPanel(SchemeAdaptive); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAlphaSweep sweeps the delay-cost weight α and reports
// how the adaptive policy's layer distribution shifts — the DESIGN.md
// ablation of the accuracy/delay tradeoff knob.
func BenchmarkAblationAlphaSweep(b *testing.B) {
	sys := univariateSystem(b)
	alphas := []float64{1e-4, 5e-4, 2e-3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range alphas {
			cfg := hec.DefaultPolicyConfig(a)
			cfg.Epochs = 3
			rng := rand.New(rand.NewSource(7))
			pol, err := hec.TrainPolicy(sys.Precomputed(), cfg, rng)
			if err != nil {
				b.Fatal(err)
			}
			swept := *sys
			swept.Policy, swept.Alpha = pol, a
			if _, err := swept.ResultPanel(SchemeAdaptive); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Parallel evaluation engine ---------------------------------------

// BenchmarkPrecomputeSequential measures the hot path of every build — all
// three detectors over the full test split — pinned to one worker and
// per-sample detection: the legacy engine, kept as the baseline the batched
// numbers are judged against.
func BenchmarkPrecomputeSequential(b *testing.B) {
	benchmarkPrecompute(b, hec.PrecomputeOptions{Workers: 1, BatchSize: 1})
}

// BenchmarkPrecomputeBatched is the same workload on one worker with the
// vectorised detection path (the default batch size): the isolated win of
// the batched tensor engine, which must be ≥ 2× over the sequential
// baseline (the committed BENCH_3.json records the measured ratio).
func BenchmarkPrecomputeBatched(b *testing.B) {
	benchmarkPrecompute(b, hec.PrecomputeOptions{Workers: 1})
}

// BenchmarkPrecomputeParallel is the production configuration: batched
// detection fanned out across one worker per CPU.
func BenchmarkPrecomputeParallel(b *testing.B) {
	benchmarkPrecompute(b, hec.PrecomputeOptions{})
}

func benchmarkPrecompute(b *testing.B, opt hec.PrecomputeOptions) {
	sys := univariateSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hec.PrecomputeWith(context.Background(), sys.Deployment, sys.Extractor, sys.TestSamples, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks for the substrates ------------------------------

// BenchmarkAEForward measures one AE-Cloud inference on a weekly window,
// the dominant cost of the univariate pipeline.
func BenchmarkAEForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, err := autoencoder.New(autoencoder.TierCloud, dataset.ReadingsPerWeek, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, dataset.ReadingsPerWeek)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Net.Forward(x, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSTMSeq2SeqReconstruct measures one LSTM-seq2seq-IoT window
// reconstruction (128×18), the dominant cost of the multivariate pipeline.
func BenchmarkLSTMSeq2SeqReconstruct(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, err := rnn.NewSeq2Seq(rnn.Config{InSize: dataset.Channels, HiddenSize: 16}, rng)
	if err != nil {
		b.Fatal(err)
	}
	w := make([][]float64, dataset.WindowSize)
	for t := range w {
		f := make([]float64, dataset.Channels)
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		w[t] = f
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Reconstruct(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyDecision measures one adaptive decision: context softmax
// through the 100-hidden-unit policy network — the per-sample overhead the
// IoT device pays for adaptivity.
func BenchmarkPolicyDecision(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net, err := policy.NewNetwork(28, 100, 3, rng)
	if err != nil {
		b.Fatal(err)
	}
	z := make([]float64, 28)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Greedy(z); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGaussianLogPDF measures the 18-dimensional anomaly-score kernel.
func BenchmarkGaussianLogPDF(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([][]float64, 500)
	for i := range samples {
		s := make([]float64, 18)
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		samples[i] = s
	}
	g, err := mat.FitGaussian(samples, 1e-6)
	if err != nil {
		b.Fatal(err)
	}
	x := samples[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.LogPDF(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionAdaptiveMultivariate measures the paper's method on the
// device, one window per Detect on the fast multivariate system. "one-pass"
// is the session as opened: the IoT model is also the extractor, so a
// window is encoded once for the policy's context and the detection.
// "two-pass" wraps the extractor, which makes the device extract the context
// first and detect after — the path the end-to-end benchmark's traced
// devices take.
func BenchmarkSessionAdaptiveMultivariate(b *testing.B) {
	sys := fastMultiSystem(b)
	twoPass := *sys
	twoPass.Extractor = wrappedExtractor{sys.Extractor}
	for _, c := range []struct {
		name string
		sys  *System
	}{{"one-pass", sys}, {"two-pass", &twoPass}} {
		b.Run(c.name, func(b *testing.B) {
			sess, err := c.sys.Open(SchemeAdaptive)
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Detect(ctx, sys.TestSamples[i%len(sys.TestSamples)].Frames); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLogPDFRows measures the batch scorer on one multivariate window's
// error matrix (128 steps × 18 channels) — what a seq2seq Detect scores.
func BenchmarkLogPDFRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([][]float64, 500)
	for i := range samples {
		s := make([]float64, 18)
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		samples[i] = s
	}
	g, err := mat.FitGaussian(samples, 1e-6)
	if err != nil {
		b.Fatal(err)
	}
	xs, err := mat.NewFromRows(samples[:128])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.LogPDFRows(xs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeq2SeqTrainStep measures one teacher-forced BPTT step of the
// smallest seq2seq model — the unit of training cost the harness budgets.
func BenchmarkSeq2SeqTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, err := seq2seq.New(seq2seq.TierIoT, seq2seq.Sizing{InSize: 18, BaseHidden: 16, DropRate: 0.3}, rng)
	if err != nil {
		b.Fatal(err)
	}
	w := make([][]float64, 64)
	for t := range w {
		f := make([]float64, 18)
		for j := range f {
			f[j] = rng.NormFloat64()
		}
		w[t] = f
	}
	cfg := seq2seq.DefaultTrainConfig()
	cfg.Epochs = 1
	train := [][][]float64{w}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Fit(train, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// Guard: the benchmark systems must satisfy the paper's structural claims
// wherever the reproduction supports them; failures print loudly without
// failing the bench (shape is asserted strictly in EXPERIMENTS.md runs).
func BenchmarkShapeChecks(b *testing.B) {
	sys := univariateSystem(b)
	rows := sys.ModelRows()
	if !(rows[0].NumParams < rows[1].NumParams && rows[1].NumParams < rows[2].NumParams) {
		b.Errorf("univariate params not increasing: %d %d %d", rows[0].NumParams, rows[1].NumParams, rows[2].NumParams)
	}
	if !(rows[0].ExecMs > rows[1].ExecMs && rows[1].ExecMs > rows[2].ExecMs) {
		b.Errorf("univariate exec times not decreasing: %g %g %g", rows[0].ExecMs, rows[1].ExecMs, rows[2].ExecMs)
	}
	sch, err := sys.SchemeRows()
	if err != nil {
		b.Fatal(err)
	}
	byName := map[string]SchemeRow{}
	for _, r := range sch {
		byName[r.Scheme] = r
	}
	if !(byName["IoT Device"].MeanDelayMs < byName["Edge"].MeanDelayMs &&
		byName["Edge"].MeanDelayMs < byName["Cloud"].MeanDelayMs) {
		b.Error("fixed-scheme delays not increasing up the hierarchy")
	}
	if byName["Our Method"].MeanDelayMs >= byName["Cloud"].MeanDelayMs {
		b.Error("adaptive scheme does not reduce delay vs cloud")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fmt.Sprintf("%v", byName["Our Method"].RewardSum)
	}
}
