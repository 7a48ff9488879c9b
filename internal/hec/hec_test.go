package hec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/features"
	"repro/internal/policy"
)

// fakeDetector is a deterministic stand-in whose verdicts are controlled by
// a threshold on the first value of the first frame: it flags a window
// anomalous when |frames[0][0]| exceeds Sensitivity⁻¹. Larger Skill means
// the detector sees subtler anomalies.
type fakeDetector struct {
	name   string
	skill  float64 // flags |v| > 1/skill
	conf   float64 // confident when |v| > 2/skill
	params int
	flops  int64
}

func (f *fakeDetector) Name() string { return f.name }

func (f *fakeDetector) Detect(frames [][]float64) (anomaly.Verdict, error) {
	if len(frames) == 0 || len(frames[0]) == 0 {
		return anomaly.Verdict{}, fmt.Errorf("empty window")
	}
	v := math.Abs(frames[0][0])
	verdict := anomaly.Verdict{MinLogPD: -v}
	if v > 1/f.skill {
		verdict.Anomaly = true
		verdict.AnomalousFraction = 1
	}
	if v > 2/f.skill || v < 0.01 {
		// Extreme anomalies and clearly-normal windows are both confident.
		verdict.Confident = true
	}
	return verdict, nil
}

func (f *fakeDetector) NumParams() int             { return f.params }
func (f *fakeDetector) FlopsPerWindow(T int) int64 { return f.flops * int64(T) }

// testDeployment builds a deployment whose three fake detectors increase in
// skill and flops from IoT to cloud.
func testDeployment(t *testing.T) *Deployment {
	t.Helper()
	dep, err := NewDeployment(DefaultTopology(), [NumLayers]anomaly.Detector{
		&fakeDetector{name: "fake-iot", skill: 1, params: 100, flops: 10},
		&fakeDetector{name: "fake-edge", skill: 2, params: 1000, flops: 100},
		&fakeDetector{name: "fake-cloud", skill: 10, params: 10000, flops: 1000},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// constExtractor exposes frames[0][0] as a 1-dim context.
type constExtractor struct{}

func (constExtractor) Context(frames [][]float64) ([]float64, error) {
	return []float64{frames[0][0]}, nil
}
func (constExtractor) Dim() int { return 1 }

func sampleWith(v float64, label bool) Sample {
	return Sample{Frames: [][]float64{{v}, {0}}, Label: label}
}

func TestLayerString(t *testing.T) {
	if LayerIoT.String() != "IoT" || LayerEdge.String() != "Edge" || LayerCloud.String() != "Cloud" {
		t.Fatal("layer names wrong")
	}
	if Layer(9).String() != "Layer(9)" {
		t.Fatal("out-of-range layer name wrong")
	}
}

func TestTopologyRTT(t *testing.T) {
	top := DefaultTopology()
	r0, err := top.RTTMs(LayerIoT, 0)
	if err != nil || r0 != 0 {
		t.Fatalf("RTT(IoT) = %g, %v", r0, err)
	}
	r1, _ := top.RTTMs(LayerEdge, 0)
	r2, _ := top.RTTMs(LayerCloud, 0)
	if r1 != 250 || r2 != 500 {
		t.Fatalf("RTTs = %g/%g, want 250/500 (Table II deltas)", r1, r2)
	}
	if _, err := top.RTTMs(Layer(5), 0); err == nil {
		t.Fatal("out-of-range layer must error")
	}
}

func TestTopologyBandwidthTerm(t *testing.T) {
	top := DefaultTopology()
	top.Links[0].KBPerMs = 10 // 10 KB/ms
	r, err := top.RTTMs(LayerEdge, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r != 250+5 {
		t.Fatalf("RTT with payload = %g, want 255", r)
	}
}

func TestTopologyExecTime(t *testing.T) {
	top := DefaultTopology()
	d := &fakeDetector{flops: 1000}
	// Dense path.
	e, err := top.ExecTimeMs(LayerIoT, d, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	want := 10000 / top.Devices[LayerIoT].DenseFlopsPerMs
	if math.Abs(e-want) > 1e-9 {
		t.Fatalf("exec = %g, want %g", e, want)
	}
	// Recurrent throughput trails dense throughput on the accelerated
	// tiers (the sequential dependency starves the GPU); the Pi's dense
	// throughput is itself low, so the relation is only asserted upward.
	for l := LayerEdge; l < NumLayers; l++ {
		de, _ := top.ExecTimeMs(l, d, 10, false)
		re, _ := top.ExecTimeMs(l, d, 10, true)
		if re <= de {
			t.Fatalf("layer %v: recurrent exec %g not slower than dense %g", l, re, de)
		}
	}
	// Faster devices upward.
	for l := Layer(0); l < NumLayers-1; l++ {
		lo, _ := top.ExecTimeMs(l, d, 10, true)
		hi, _ := top.ExecTimeMs(l+1, d, 10, true)
		if hi >= lo {
			t.Fatalf("exec not decreasing up the hierarchy: %v %g vs %v %g", l, lo, l+1, hi)
		}
	}
	if _, err := top.ExecTimeMs(Layer(7), d, 10, false); err == nil {
		t.Fatal("out-of-range layer must error")
	}
}

func TestNewDeploymentValidation(t *testing.T) {
	if _, err := NewDeployment(DefaultTopology(), [NumLayers]anomaly.Detector{}, false); err == nil {
		t.Fatal("nil detectors must be rejected")
	}
}

func TestPrecomputeShapes(t *testing.T) {
	dep := testDeployment(t)
	samples := []Sample{sampleWith(0, false), sampleWith(3, true)}
	pc, err := Precompute(context.Background(), dep, constExtractor{}, samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.Outcomes) != 2 || len(pc.Contexts) != 2 {
		t.Fatalf("precompute sizes %d/%d", len(pc.Outcomes), len(pc.Contexts))
	}
	if pc.RTTs != [NumLayers]float64{0, 250, 500} {
		t.Fatalf("RTTs = %v", pc.RTTs)
	}
	// E2E = RTT + exec for every layer.
	for l := Layer(0); l < NumLayers; l++ {
		o := pc.Outcomes[0][l]
		if math.Abs(o.E2EMs-(pc.RTTs[l]+o.ExecMs)) > 1e-9 {
			t.Fatalf("layer %v E2E inconsistent", l)
		}
	}
	// Without an extractor, contexts stay nil.
	pc2, err := Precompute(context.Background(), dep, nil, samples)
	if err != nil {
		t.Fatal(err)
	}
	if pc2.Contexts != nil {
		t.Fatal("contexts should be nil without an extractor")
	}
}

// TestResultAddSeries checks Result.Add's bookkeeping: the running accuracy
// and F1 after each sample, the final counts, and the per-sample series.
func TestResultAddSeries(t *testing.T) {
	r := Result{Alpha: 5e-4}
	r.Add(true, true, 10, LayerIoT)    // acc 1
	r.Add(false, true, 260, LayerEdge) // acc 0.5
	r.Add(true, true, 510, LayerCloud) // acc 2/3
	if len(r.AccSeries) != 3 || len(r.F1Series) != 3 {
		t.Fatalf("series lengths %d/%d", len(r.AccSeries), len(r.F1Series))
	}
	if r.AccSeries[0] != 1 || r.AccSeries[1] != 0.5 {
		t.Fatalf("acc series = %v", r.AccSeries)
	}
	if math.Abs(r.AccSeries[2]-2.0/3) > 1e-12 {
		t.Fatalf("acc[2] = %g", r.AccSeries[2])
	}
	if r.Confusion.TP != 2 || r.Confusion.FN != 1 {
		t.Fatalf("final = %+v", r.Confusion)
	}
	if r.F1Series[2] != r.Confusion.F1() {
		t.Fatalf("f1 series ends at %g, final F1 %g", r.F1Series[2], r.Confusion.F1())
	}
	if r.Delays.Count() != 3 || r.DelaysMs[1] != 260 || r.Layers[2] != LayerCloud || r.Predictions[1] || !r.Truths[1] {
		t.Fatalf("per-sample series = %v %v %v %v", r.DelaysMs, r.Layers, r.Predictions, r.Truths)
	}
	want := policy.Reward(true, 5e-4, 10) + policy.Reward(false, 5e-4, 260) + policy.Reward(true, 5e-4, 510)
	if math.Abs(r.Reward.Sum()-want) > 1e-12 {
		t.Fatalf("reward sum %g, want %g", r.Reward.Sum(), want)
	}
}

// TestTrainPolicyLearnsHardnessRouting is the integration test of the
// adaptive scheme: with fake detectors whose skill increases up the
// hierarchy and samples whose context reveals their subtlety, the trained
// policy should send obvious anomalies (and normals) to cheap layers and
// subtle anomalies to the cloud, beating every fixed scheme on summed
// reward.
func TestTrainPolicyLearnsHardnessRouting(t *testing.T) {
	dep := testDeployment(t)
	rng := rand.New(rand.NewSource(11))
	var samples []Sample
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0: // normal
			samples = append(samples, sampleWith(rng.Float64()*0.05, false))
		case 1: // obvious anomaly — any layer catches it
			samples = append(samples, sampleWith(2.5+rng.Float64(), true))
		default: // subtle anomaly — only the cloud catches it
			samples = append(samples, sampleWith(0.3+rng.Float64()*0.2, true))
		}
	}
	pc, err := Precompute(context.Background(), dep, constExtractor{}, samples)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPolicyConfig(5e-4)
	cfg.Epochs = 20
	pol, err := TrainPolicy(pc, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}

	// Replay the greedy policy and each fixed layer over the training
	// outcomes: summed reward, mean delay and the policy's layer shares.
	var adaptive, adaptiveDelay float64
	var fixed, fixedDelay [NumLayers]float64
	var shares [NumLayers]float64
	for i, sample := range pc.Samples {
		a, err := pol.Greedy(pc.Contexts[i])
		if err != nil {
			t.Fatal(err)
		}
		o := pc.Outcomes[i][a]
		delay := pc.PolicyOverheadMs + o.E2EMs
		adaptive += policy.Reward(o.Verdict.Anomaly == sample.Label, cfg.Alpha, delay)
		adaptiveDelay += delay / float64(len(pc.Samples))
		shares[a] += 1 / float64(len(pc.Samples))
		for l, o := range pc.Outcomes[i] {
			fixed[l] += policy.Reward(o.Verdict.Anomaly == sample.Label, cfg.Alpha, o.E2EMs)
			fixedDelay[l] += o.E2EMs / float64(len(pc.Samples))
		}
	}
	for l := Layer(0); l < NumLayers; l++ {
		if adaptive <= fixed[l] {
			t.Fatalf("adaptive reward %g not above %v reward %g", adaptive, l, fixed[l])
		}
	}
	// The policy should use more than one layer.
	used := 0
	for _, sh := range shares {
		if sh > 0.05 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("policy collapsed to one layer: shares %v", shares)
	}
	// And its delay should be far below always-cloud.
	if adaptiveDelay >= fixedDelay[LayerCloud] {
		t.Fatalf("adaptive mean delay %g not below cloud %g", adaptiveDelay, fixedDelay[LayerCloud])
	}
}

func TestTrainPolicyValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := TrainPolicy(&Precomputed{}, DefaultPolicyConfig(5e-4), rng); err == nil {
		t.Fatal("missing contexts must be rejected")
	}
	dep := testDeployment(t)
	pc, err := Precompute(context.Background(), dep, constExtractor{}, []Sample{sampleWith(0, false)})
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultPolicyConfig(5e-4)
	bad.Epochs = 0
	if _, err := TrainPolicy(pc, bad, rng); err == nil {
		t.Fatal("zero epochs must be rejected")
	}
}

// Assert the features.Extractor interface is satisfied by the test helper
// (compile-time check mirroring the production extractors).
var _ features.Extractor = constExtractor{}
