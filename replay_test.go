package repro

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/anomaly"
	"repro/internal/features"
	"repro/internal/hec"
	"repro/internal/policy"
)

// tierDetector stands in for one layer's deployed model: it judges the
// value frames[0][layer], anomalous above 0.5 and confident below 0.1 or
// above 0.9, so a test window can hold a different verdict for each layer.
type tierDetector struct {
	layer hec.Layer
	flops int64
}

func (d tierDetector) Name() string { return "tier-" + d.layer.String() }

func (d tierDetector) Detect(frames [][]float64) (anomaly.Verdict, error) {
	v := frames[0][d.layer]
	return anomaly.Verdict{Anomaly: v > 0.5, Confident: v < 0.1 || v > 0.9}, nil
}

func (d tierDetector) NumParams() int             { return 1 }
func (d tierDetector) FlopsPerWindow(T int) int64 { return d.flops * int64(T) }

// tierContext exposes the window's per-layer values as its policy context.
type tierContext struct{}

func (tierContext) Context(frames [][]float64) ([]float64, error) {
	return append([]float64(nil), frames[0]...), nil
}
func (tierContext) Dim() int { return hec.NumLayers }

// tierSystem builds a policy-less system over tierDetectors with the given
// per-window FLOPs. Its test split holds one window per entry of values,
// each the values its layers' detectors see, labelled by labels. A nil ext
// leaves the precomputed contexts out.
func tierSystem(t testing.TB, flops [hec.NumLayers]int64, ext features.Extractor, values [][hec.NumLayers]float64, labels []bool) *System {
	t.Helper()
	var dets [hec.NumLayers]anomaly.Detector
	for l := range dets {
		dets[l] = tierDetector{layer: hec.Layer(l), flops: flops[l]}
	}
	dep, err := hec.NewDeployment(hec.DefaultTopology(), dets, false)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]hec.Sample, len(values))
	for i := range values {
		samples[i] = hec.Sample{Frames: [][]float64{values[i][:]}, Label: labels[i]}
	}
	sys := &System{Kind: Univariate, Deployment: dep, Extractor: ext, Alpha: AlphaUnivariate, TestSamples: samples}
	if sys.testPC, err = hec.Precompute(context.Background(), dep, ext, samples); err != nil {
		t.Fatal(err)
	}
	return sys
}

var tierFlops = [hec.NumLayers]int64{10, 100, 1000}

// tierPolicy is an untrained policy over tierContext's contexts.
func tierPolicy(t testing.TB) *policy.Network {
	t.Helper()
	pol, err := policy.NewNetwork(hec.NumLayers, 8, hec.NumLayers, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestSchemeRowsFixedLayers checks Table II's rows: the paper's five labels
// in order, and each fixed scheme resolving every window at its own layer —
// where the IoT model misses the subtle anomaly the cloud model catches, at
// a higher delay.
func TestSchemeRowsFixedLayers(t *testing.T) {
	sys := tierSystem(t, tierFlops, tierContext{},
		[][hec.NumLayers]float64{{0, 0, 0}, {0.3, 0.3, 0.7}, {1, 1, 1}},
		[]bool{false, true, true})
	sys.Policy = tierPolicy(t)
	rows, err := sys.SchemeRows()
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"IoT Device", "Edge", "Cloud", "Successive", "Our Method"}
	if len(rows) != len(labels) {
		t.Fatalf("%d rows, want %d", len(rows), len(labels))
	}
	for i, row := range rows {
		if row.Scheme != labels[i] {
			t.Fatalf("row %d = %q, want %q", i, row.Scheme, labels[i])
		}
	}
	for l := hec.LayerIoT; l < hec.NumLayers; l++ {
		if shares := rows[l].LayerShares; shares[l] != 1 {
			t.Fatalf("%s layer shares = %v, want all at %v", rows[l].Scheme, shares, l)
		}
	}
	iot, cloud := rows[hec.LayerIoT], rows[hec.LayerCloud]
	if iot.Result.Predictions[1] {
		t.Fatal("weak IoT detector should miss the subtle anomaly")
	}
	if !cloud.Result.Predictions[1] {
		t.Fatal("cloud detector should catch the subtle anomaly")
	}
	if cloud.MeanDelayMs <= iot.MeanDelayMs {
		t.Fatal("cloud delay must exceed IoT delay")
	}
}

// TestResultPanelAggregates checks a panel's confusion counts, series,
// reward and layer shares, and that an empty test split is an error.
func TestResultPanelAggregates(t *testing.T) {
	sys := tierSystem(t, tierFlops, nil,
		[][hec.NumLayers]float64{{0, 0, 0}, {0, 0, 0.7}, {1, 1, 1}, {0.3, 0.3, 0.7}},
		[]bool{false, false, true, true})
	res, err := sys.ResultPanel(SchemeCloud)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confusion.Total() != 4 {
		t.Fatalf("total = %d", res.Confusion.Total())
	}
	// The cloud flags the second window: a false positive.
	if res.Confusion.FP != 1 || res.Confusion.TP != 2 || res.Confusion.TN != 1 {
		t.Fatalf("confusion = %+v", res.Confusion)
	}
	if res.Delays.Count() != 4 || len(res.AccSeries) != 4 {
		t.Fatal("per-sample series incomplete")
	}
	// Reward sum: each sample contributes acc − C(delay) with acc ∈ {0,1}.
	if perfect := 3.0; res.Reward.Sum() >= perfect { // 3 correct of 4
		t.Fatalf("reward sum %g must be below %g (delay cost)", res.Reward.Sum(), perfect)
	}
	if shares := res.LayerShares(); shares[hec.LayerCloud] != 1 {
		t.Fatalf("layer shares = %v, want all cloud", shares)
	}
	sys.testPC = &hec.Precomputed{}
	if _, err := sys.ResultPanel(SchemeIoT); err == nil {
		t.Fatal("empty test split must error")
	}
}

// TestQuickResultPanelSuccessiveDelayBounds checks Successive over random detections
// and model costs: each window stops at its first confident layer (the
// cloud at the latest), and its delay is the execution time of every layer
// tried plus the round trip to the stopping layer — at least the IoT
// execution time, at most every execution plus the top-layer round trip.
func TestQuickResultPanelSuccessiveDelayBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var flops [hec.NumLayers]int64
		for l := range flops {
			flops[l] = 1 + rng.Int63n(100000)
		}
		values := make([][hec.NumLayers]float64, 8)
		labels := make([]bool, len(values))
		for i := range values {
			for l := range values[i] {
				values[i][l] = []float64{0.05, 0.3, 0.7, 0.95}[rng.Intn(4)]
			}
			labels[i] = rng.Intn(2) == 0
		}
		sys := tierSystem(t, flops, nil, values, labels)
		pc := sys.Precomputed()
		res, err := sys.ResultPanel(SchemeSuccessive)
		if err != nil {
			t.Log(err)
			return false
		}
		for i := range values {
			final := hec.LayerIoT
			for final < hec.NumLayers-1 && !pc.Outcomes[i][final].Verdict.Confident {
				final++
			}
			var exec, execAll float64
			for l := hec.LayerIoT; l < hec.NumLayers; l++ {
				if l <= final {
					exec += pc.Outcomes[i][l].ExecMs
				}
				execAll += pc.Outcomes[i][l].ExecMs
			}
			d := res.DelaysMs[i]
			lo, hi := pc.Outcomes[i][hec.LayerIoT].ExecMs, execAll+pc.RTTs[hec.NumLayers-1]
			if res.Layers[i] != final || math.Abs(d-(exec+pc.RTTs[final])) > 1e-9 || d < lo-1e-9 || d > hi+1e-9 {
				t.Logf("seed %d window %d: stopped at %v with %g ms, want %v with %g ms in [%g, %g]",
					seed, i, res.Layers[i], d, final, exec+pc.RTTs[final], lo, hi)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestResultPanelNeedsPolicyAndContexts checks the policy-driven panels:
// Adaptive needs a policy and precomputed contexts, and Pathological falls
// back to always-cloud without a policy, as a device does.
func TestResultPanelNeedsPolicyAndContexts(t *testing.T) {
	values := [][hec.NumLayers]float64{{0, 0, 0}, {1, 1, 1}}
	labels := []bool{false, true}
	sys := tierSystem(t, tierFlops, tierContext{}, values, labels)
	if _, err := sys.ResultPanel(SchemeAdaptive); err == nil {
		t.Fatal("adaptive without a policy must error")
	}
	res, err := sys.ResultPanel(SchemePathological)
	if err != nil {
		t.Fatal(err)
	}
	if shares := res.LayerShares(); shares[hec.LayerCloud] != 1 {
		t.Fatalf("policy-less pathological layer shares = %v, want all cloud", shares)
	}
	sys.Policy = tierPolicy(t)
	if _, err := sys.ResultPanel(SchemeAdaptive); err != nil {
		t.Fatalf("adaptive with a policy and contexts: %v", err)
	}
	sys.testPC.Contexts = nil
	if _, err := sys.ResultPanel(SchemeAdaptive); err == nil {
		t.Fatal("adaptive without contexts must error")
	}
}

// TestSchemeRowsCancelled checks a done ctx aborts the scheme runs with an
// error in both the repro taxonomy and the context package's.
func TestSchemeRowsCancelled(t *testing.T) {
	sys := tierSystem(t, tierFlops, nil, [][hec.NumLayers]float64{{0, 0, 0}, {1, 1, 1}}, []bool{false, true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sys.SchemeRowsContext(ctx)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("SchemeRowsContext err = %v, want ErrCanceled and context.Canceled", err)
	}
}
