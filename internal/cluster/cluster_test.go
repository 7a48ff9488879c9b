package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/hec"
	"repro/internal/transport"
)

// stubDetector returns a fixed verdict.
type stubDetector struct {
	verdict anomaly.Verdict
	err     error
}

func (s stubDetector) Name() string                                { return "stub" }
func (s stubDetector) Detect([][]float64) (anomaly.Verdict, error) { return s.verdict, s.err }
func (s stubDetector) NumParams() int                              { return 1 }
func (s stubDetector) FlopsPerWindow(int) int64                    { return 1 }

// stubRemote returns a fixed result and counts calls.
type stubRemote struct {
	verdict anomaly.Verdict
	execMs  float64
	netMs   float64
	err     error
	calls   atomic.Int64
}

func (r *stubRemote) DetectContext(context.Context, [][]float64) (transport.DetectResult, error) {
	r.calls.Add(1)
	if r.err != nil {
		return transport.DetectResult{}, r.err
	}
	return transport.DetectResult{
		Verdict: r.verdict,
		ExecMs:  r.execMs,
		NetMs:   r.netMs,
		E2EMs:   r.execMs + r.netMs,
	}, nil
}

// stubPolicy returns a fixed action distribution.
type stubPolicy struct{ probs []float64 }

func (p stubPolicy) Probs([]float64) ([]float64, error) { return p.probs, nil }

// stubExtractor returns a fixed context.
type stubExtractor struct{}

func (stubExtractor) Context([][]float64) ([]float64, error) { return []float64{1}, nil }
func (stubExtractor) Dim() int                               { return 1 }

func confident(anomaly_ bool) anomaly.Verdict {
	return anomaly.Verdict{Anomaly: anomaly_, Confident: true}
}

func unconfident() anomaly.Verdict { return anomaly.Verdict{} }

var window = [][]float64{{1}, {2}}

func testDevice(localVerdict anomaly.Verdict, edge, cloud *stubRemote) *Device {
	return &Device{
		Local:            stubDetector{verdict: localVerdict},
		LocalExecMs:      func(int) float64 { return 3 },
		Remotes:          [hec.NumLayers]Remote{nil, edge, cloud},
		Policy:           stubPolicy{probs: []float64{0.1, 0.7, 0.2}},
		Extractor:        stubExtractor{},
		PolicyOverheadMs: 0.5,
	}
}

func TestFixedDelayAccounting(t *testing.T) {
	edge := &stubRemote{verdict: confident(true), execMs: 5, netMs: 7}
	dev := testDevice(confident(false), edge, nil)

	out, err := dev.Run(context.Background(), SchemeIoT, window)
	if err != nil {
		t.Fatal(err)
	}
	if out.Layer != hec.LayerIoT || out.DelayMs != 3 || out.NetMs != 0 || out.ExecMs != 3 {
		t.Fatalf("local outcome = %+v, want exec-only 3 ms at IoT", out)
	}

	out, err = dev.Run(context.Background(), SchemeEdge, window)
	if err != nil {
		t.Fatal(err)
	}
	if out.Layer != hec.LayerEdge || out.ExecMs != 5 || out.NetMs != 7 || out.DelayMs != 12 {
		t.Fatalf("edge outcome = %+v, want exec 5 + net 7", out)
	}
	if !out.Verdict.Anomaly {
		t.Fatal("edge verdict lost in transit")
	}
}

// TestSuccessiveCloudPathCountsEveryLayer is the regression test for the old
// examples/cluster accounting bug: when escalation reaches the cloud, the
// delay must still include the IoT and edge execution times and both
// network trips, all in consistent units (simulated exec + measured net).
func TestSuccessiveCloudPathCountsEveryLayer(t *testing.T) {
	edge := &stubRemote{verdict: unconfident(), execMs: 5, netMs: 7}
	cloud := &stubRemote{verdict: confident(true), execMs: 2, netMs: 11}
	dev := testDevice(unconfident(), edge, cloud)

	out, err := dev.Run(context.Background(), SchemeSuccessive, window)
	if err != nil {
		t.Fatal(err)
	}
	if out.Layer != hec.LayerCloud {
		t.Fatalf("stopped at %v, want Cloud", out.Layer)
	}
	if out.ExecMs != 3+5+2 {
		t.Fatalf("exec = %g, want 10 (every layer tried)", out.ExecMs)
	}
	if out.NetMs != 7+11 {
		t.Fatalf("net = %g, want 18 (both offloads)", out.NetMs)
	}
	if out.DelayMs != 28 {
		t.Fatalf("delay = %g, want 28", out.DelayMs)
	}
}

func TestSuccessiveStopsAtConfidentEdge(t *testing.T) {
	edge := &stubRemote{verdict: confident(true), execMs: 5, netMs: 7}
	cloud := &stubRemote{verdict: confident(true), execMs: 2, netMs: 11}
	dev := testDevice(unconfident(), edge, cloud)

	out, err := dev.Run(context.Background(), SchemeSuccessive, window)
	if err != nil {
		t.Fatal(err)
	}
	if out.Layer != hec.LayerEdge || out.DelayMs != 3+5+7 {
		t.Fatalf("outcome = %+v, want edge stop at 15 ms", out)
	}
	if cloud.calls.Load() != 0 {
		t.Fatal("cloud contacted after a confident edge verdict")
	}
}

func TestSuccessiveConfidentLocalStaysLocal(t *testing.T) {
	edge := &stubRemote{verdict: confident(true), execMs: 5, netMs: 7}
	dev := testDevice(confident(true), edge, nil)
	out, err := dev.Run(context.Background(), SchemeSuccessive, window)
	if err != nil {
		t.Fatal(err)
	}
	if out.Layer != hec.LayerIoT || out.DelayMs != 3 {
		t.Fatalf("outcome = %+v, want local stop at 3 ms", out)
	}
	if edge.calls.Load() != 0 {
		t.Fatal("edge contacted after a confident local verdict")
	}
}

func TestAdaptiveFollowsPolicy(t *testing.T) {
	edge := &stubRemote{verdict: confident(true), execMs: 5, netMs: 7}
	cloud := &stubRemote{verdict: confident(true), execMs: 2, netMs: 11}
	dev := testDevice(confident(false), edge, cloud) // policy prefers edge (0.7)

	out, err := dev.Run(context.Background(), SchemeAdaptive, window)
	if err != nil {
		t.Fatal(err)
	}
	if out.Layer != hec.LayerEdge {
		t.Fatalf("adaptive routed to %v, want Edge (policy argmax)", out.Layer)
	}
	if out.DelayMs != 5+7+0.5 {
		t.Fatalf("delay = %g, want 12.5 (edge e2e + policy overhead)", out.DelayMs)
	}
}

func TestPathologicalPicksLeastPreferred(t *testing.T) {
	edge := &stubRemote{verdict: confident(true), execMs: 5, netMs: 7}
	cloud := &stubRemote{verdict: confident(true), execMs: 2, netMs: 11}
	dev := testDevice(confident(false), edge, cloud) // policy argmin is IoT (0.1)

	out, err := dev.Run(context.Background(), SchemePathological, window)
	if err != nil {
		t.Fatal(err)
	}
	if out.Layer != hec.LayerIoT {
		t.Fatalf("pathological routed to %v, want IoT (policy argmin)", out.Layer)
	}
	if out.DelayMs != 3+0.5 {
		t.Fatalf("delay = %g, want 3.5", out.DelayMs)
	}

	// Without a policy it degrades to always-cloud.
	dev.Policy = nil
	out, err = dev.Run(context.Background(), SchemePathological, window)
	if err != nil {
		t.Fatal(err)
	}
	if out.Layer != hec.LayerCloud {
		t.Fatalf("policy-less pathological routed to %v, want Cloud", out.Layer)
	}
}

func TestPolicyActionOutOfRange(t *testing.T) {
	dev := testDevice(confident(false), &stubRemote{}, &stubRemote{})
	dev.Policy = stubPolicy{probs: []float64{0.1, 0.1, 0.1, 0.7}}
	if _, err := dev.Run(context.Background(), SchemeAdaptive, window); err == nil {
		t.Fatal("action beyond NumLayers must be rejected")
	}
}

func TestDeviceMissingPieces(t *testing.T) {
	dev := &Device{}
	if _, err := dev.Run(context.Background(), SchemeIoT, window); err == nil {
		t.Fatal("missing local detector must error")
	}
	if _, err := dev.Run(context.Background(), SchemeEdge, window); err == nil {
		t.Fatal("missing remote must error")
	}
	if _, err := dev.Run(context.Background(), SchemeAdaptive, window); err == nil {
		t.Fatal("missing policy must error")
	}
}

func TestParseScheme(t *testing.T) {
	for _, name := range []string{"iot", "edge", "cloud", "successive", "adaptive", "pathological"} {
		if _, err := ParseScheme(name); err != nil {
			t.Errorf("ParseScheme(%q): %v", name, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("bogus scheme accepted")
	}
}

// runCohort drives dev with a one-cohort fleet and returns that cohort's
// stats.
func runCohort(ctx context.Context, dev *Device, samples []hec.Sample, c Cohort) (*Stats, error) {
	fs, err := RunFleet(ctx, dev, samples, FleetConfig{Cohorts: []Cohort{c}})
	if err != nil {
		return nil, err
	}
	return fs.Cohorts[0], nil
}

func TestLoadGeneratorAggregates(t *testing.T) {
	edge := &stubRemote{verdict: confident(true), execMs: 5, netMs: 7}
	cloud := &stubRemote{verdict: confident(true), execMs: 2, netMs: 11}
	dev := testDevice(confident(true), edge, cloud)

	// Half the labels true: an always-anomalous verdict scores 50%.
	samples := make([]hec.Sample, 10)
	for i := range samples {
		samples[i] = hec.Sample{Frames: window, Label: i%2 == 0}
	}

	st, err := runCohort(context.Background(), dev, samples, Cohort{Scheme: SchemeAdaptive, Devices: 8, Rounds: 2, Alpha: 5e-4})
	if err != nil {
		t.Fatal(err)
	}
	if want := 8 * 2 * len(samples); st.Windows != want {
		t.Fatalf("windows = %d, want %d", st.Windows, want)
	}
	if acc := st.Accuracy(); acc != 0.5 {
		t.Fatalf("accuracy = %g, want 0.5", acc)
	}
	mix := st.LayerMix()
	if mix[hec.LayerEdge] != 1 || mix[hec.LayerIoT] != 0 || mix[hec.LayerCloud] != 0 {
		t.Fatalf("layer mix = %v, want all edge", mix)
	}
	if st.Throughput() <= 0 {
		t.Fatalf("throughput = %g, want > 0", st.Throughput())
	}
	p50, p95, p99 := st.Delays.Percentile(50), st.Delays.Percentile(95), st.Delays.Percentile(99)
	if p50 > p95 || p95 > p99 {
		t.Fatalf("percentiles not monotone: p50=%g p95=%g p99=%g", p50, p95, p99)
	}
	if st.Delays.Count() != st.Windows {
		t.Fatalf("delay observations = %d, want %d", st.Delays.Count(), st.Windows)
	}
}

func TestLoadGeneratorPropagatesErrors(t *testing.T) {
	edge := &stubRemote{err: fmt.Errorf("edge down")}
	dev := testDevice(confident(true), edge, nil)
	samples := []hec.Sample{{Frames: window}}
	if _, err := runCohort(context.Background(), dev, samples, Cohort{Scheme: SchemeEdge, Devices: 4}); err == nil {
		t.Fatal("remote failure must abort the run")
	}
	if _, err := runCohort(context.Background(), dev, nil, Cohort{Scheme: SchemeEdge}); err == nil {
		t.Fatal("empty sample set must be rejected")
	}
	if _, err := runCohort(context.Background(), nil, samples, Cohort{}); err == nil {
		t.Fatal("nil device must be rejected")
	}
}
