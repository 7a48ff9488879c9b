package cluster

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/hec"
	"repro/internal/transport"
)

// stubBatchRemote implements BatchRemote with scripted per-window results
// and counts batch requests.
type stubBatchRemote struct {
	stubRemote
	batchCalls atomic.Int64
}

func (r *stubBatchRemote) DetectBatchContext(_ context.Context, windows [][][]float64) (transport.BatchResult, error) {
	r.batchCalls.Add(1)
	if r.err != nil {
		return transport.BatchResult{}, r.err
	}
	res := transport.BatchResult{NetMs: r.netMs}
	for range windows {
		res.Verdicts = append(res.Verdicts, r.verdict)
		res.ExecMsEach = append(res.ExecMsEach, r.execMs)
	}
	return res, nil
}

func windowsN(n int) [][][]float64 {
	out := make([][][]float64, n)
	for i := range out {
		out[i] = window
	}
	return out
}

// TestRunBatchFixedSharesNetworkTime pins the batch delay rule: one request,
// its network time split evenly across the windows.
func TestRunBatchFixedSharesNetworkTime(t *testing.T) {
	edge := &stubBatchRemote{stubRemote: stubRemote{verdict: confident(true), execMs: 5, netMs: 12}}
	dev := testDevice(confident(false), nil, nil)
	dev.Remotes[hec.LayerEdge] = edge
	outs, err := dev.RunBatch(context.Background(), SchemeEdge, windowsN(4))
	if err != nil {
		t.Fatal(err)
	}
	if edge.batchCalls.Load() != 1 {
		t.Fatalf("%d batch requests, want 1", edge.batchCalls.Load())
	}
	for i, out := range outs {
		if out.Layer != hec.LayerEdge || !out.Verdict.Anomaly {
			t.Fatalf("window %d routed wrong: %+v", i, out)
		}
		if out.ExecMs != 5 || math.Abs(out.NetMs-3) > 1e-12 || math.Abs(out.DelayMs-8) > 1e-12 {
			t.Fatalf("window %d delay accounting: %+v (want exec 5, net 3, delay 8)", i, out)
		}
	}
}

// TestRunBatchSuccessiveEscalatesOnlyUnconfident checks staged escalation:
// the whole batch is judged locally, only the unconfident windows ride to
// the edge, and a confident edge verdict stops the escalation.
func TestRunBatchSuccessiveEscalatesOnlyUnconfident(t *testing.T) {
	edge := &stubBatchRemote{stubRemote: stubRemote{verdict: confident(true), execMs: 5, netMs: 6}}
	cloud := &stubBatchRemote{stubRemote: stubRemote{verdict: confident(true), execMs: 1, netMs: 40}}
	dev := testDevice(unconfident(), nil, nil)
	dev.Remotes[hec.LayerEdge] = edge
	dev.Remotes[hec.LayerCloud] = cloud
	outs, err := dev.RunBatch(context.Background(), SchemeSuccessive, windowsN(3))
	if err != nil {
		t.Fatal(err)
	}
	if edge.batchCalls.Load() != 1 || cloud.batchCalls.Load() != 0 {
		t.Fatalf("edge %d / cloud %d batch calls, want 1 / 0", edge.batchCalls.Load(), cloud.batchCalls.Load())
	}
	for i, out := range outs {
		if out.Layer != hec.LayerEdge {
			t.Fatalf("window %d stopped at %v, want edge", i, out.Layer)
		}
		// Local exec (3) + edge exec (5), edge net 6 shared across 3 windows.
		if math.Abs(out.ExecMs-8) > 1e-12 || math.Abs(out.NetMs-2) > 1e-12 {
			t.Fatalf("window %d accounting: %+v", i, out)
		}
	}

	// A confident local verdict must never leave the device.
	devLocal := testDevice(confident(false), nil, nil)
	devLocal.Remotes[hec.LayerEdge] = edge
	outs, err = devLocal.RunBatch(context.Background(), SchemeSuccessive, windowsN(2))
	if err != nil {
		t.Fatal(err)
	}
	if edge.batchCalls.Load() != 1 {
		t.Fatal("confident local batch still escalated")
	}
	for _, out := range outs {
		if out.Layer != hec.LayerIoT || out.NetMs != 0 {
			t.Fatalf("local outcome %+v", out)
		}
	}
}

// TestRunBatchAdaptiveGroupsByPolicyLayer checks policy grouping: with a
// policy preferring the edge, all windows go as one edge batch, each paying
// the policy overhead.
func TestRunBatchAdaptiveGroupsByPolicyLayer(t *testing.T) {
	edge := &stubBatchRemote{stubRemote: stubRemote{verdict: confident(true), execMs: 5, netMs: 8}}
	cloud := &stubBatchRemote{stubRemote: stubRemote{verdict: confident(true), execMs: 1, netMs: 40}}
	dev := testDevice(confident(false), nil, nil)
	dev.Remotes[hec.LayerEdge] = edge
	dev.Remotes[hec.LayerCloud] = cloud
	outs, err := dev.RunBatch(context.Background(), SchemeAdaptive, windowsN(4))
	if err != nil {
		t.Fatal(err)
	}
	if edge.batchCalls.Load() != 1 || cloud.batchCalls.Load() != 0 {
		t.Fatalf("edge %d / cloud %d calls", edge.batchCalls.Load(), cloud.batchCalls.Load())
	}
	for i, out := range outs {
		if out.Layer != hec.LayerEdge {
			t.Fatalf("window %d at %v", i, out.Layer)
		}
		// exec 5 + net 8/4 + policy overhead 0.5.
		if math.Abs(out.DelayMs-7.5) > 1e-12 {
			t.Fatalf("window %d delay %g, want 7.5", i, out.DelayMs)
		}
	}

	// Pathological routes to the least preferred layer (IoT at prob 0.1).
	outs, err = dev.RunBatch(context.Background(), SchemePathological, windowsN(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out.Layer != hec.LayerIoT {
			t.Fatalf("pathological window %d at %v, want IoT", i, out.Layer)
		}
	}
}

// TestRunBatchFallsBackToPerWindowRemote checks a plain Remote (no batch
// RPC) still works under RunBatch: one call per window, each window paying
// its own network time.
func TestRunBatchFallsBackToPerWindowRemote(t *testing.T) {
	edge := &stubRemote{verdict: confident(true), execMs: 5, netMs: 7}
	dev := testDevice(confident(false), edge, nil)
	outs, err := dev.RunBatch(context.Background(), SchemeEdge, windowsN(3))
	if err != nil {
		t.Fatal(err)
	}
	if edge.calls.Load() != 3 {
		t.Fatalf("%d per-window calls, want 3", edge.calls.Load())
	}
	for i, out := range outs {
		// Each window's own round trip: net 7, delay 5 + 7.
		if math.Abs(out.NetMs-7) > 1e-12 || math.Abs(out.DelayMs-12) > 1e-12 {
			t.Fatalf("window %d accounting %+v", i, out)
		}
	}
	if outs, err := dev.RunBatch(context.Background(), SchemeEdge, nil); err != nil || outs != nil {
		t.Fatalf("empty batch: (%v, %v)", outs, err)
	}
}

// TestLoadGeneratorBatchMode runs the load generator in batch mode against
// stub remotes and cross-checks the aggregate verdict counts against
// per-window mode (delay stats differ by design: batches share net time).
func TestLoadGeneratorBatchMode(t *testing.T) {
	mkDev := func() *Device {
		edge := &stubBatchRemote{stubRemote: stubRemote{verdict: confident(true), execMs: 5, netMs: 8}}
		dev := testDevice(confident(false), nil, nil)
		dev.Remotes[hec.LayerEdge] = edge
		return dev
	}
	samples := make([]hec.Sample, 30)
	for i := range samples {
		samples[i] = hec.Sample{Frames: window, Label: i%2 == 0}
	}
	batched, err := runCohort(context.Background(), mkDev(), samples, Cohort{Scheme: SchemeEdge, Devices: 3, Alpha: 5e-4, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	perWindow, err := runCohort(context.Background(), mkDev(), samples, Cohort{Scheme: SchemeEdge, Devices: 3, Alpha: 5e-4})
	if err != nil {
		t.Fatal(err)
	}
	if batched.Windows != perWindow.Windows || batched.Windows != 90 {
		t.Fatalf("windows: batched %d vs per-window %d, want 90", batched.Windows, perWindow.Windows)
	}
	if batched.Confusion != perWindow.Confusion {
		t.Fatalf("confusion diverges: %+v vs %+v", batched.Confusion, perWindow.Confusion)
	}
	if batched.LayerCounts != perWindow.LayerCounts {
		t.Fatalf("layer mix diverges: %v vs %v", batched.LayerCounts, perWindow.LayerCounts)
	}
	// Batching must not inflate delay: shared net time can only shrink it.
	if batched.Delays.Mean() > perWindow.Delays.Mean()+1e-9 {
		t.Fatalf("batched mean delay %g exceeds per-window %g", batched.Delays.Mean(), perWindow.Delays.Mean())
	}
}

// TestDeviceBatchOverLiveTransport runs RunBatch against a real detection
// server over loopback TCP, checking the live wire path end to end and the
// verdict equivalence with per-window dispatch.
func TestDeviceBatchOverLiveTransport(t *testing.T) {
	det := stubDetector{verdict: anomaly.Verdict{Anomaly: true, Confident: true, MinLogPD: -9}}
	srv, err := transport.Serve("127.0.0.1:0", det, func(frames int) float64 { return float64(frames) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := transport.Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	dev := testDevice(unconfident(), nil, nil)
	dev.Remotes[hec.LayerEdge] = cli
	outs, err := dev.RunBatch(context.Background(), SchemeEdge, windowsN(5))
	if err != nil {
		t.Fatal(err)
	}
	single, err := dev.Run(context.Background(), SchemeEdge, window)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out.Verdict != single.Verdict {
			t.Fatalf("window %d verdict %+v vs per-window %+v", i, out.Verdict, single.Verdict)
		}
		if out.ExecMs != float64(len(window)) {
			t.Fatalf("window %d exec %g, want %d", i, out.ExecMs, len(window))
		}
	}
}

// Stubs that allocate nothing themselves, so AllocsPerRun counts only the
// dispatch code: every result is a slice of a preallocated array. Locally
// every other window of a batch is confident (a lone window never is); the
// edge and cloud are always confident.
type (
	quietLocal  struct{ stubDetector }
	quietRemote struct{}
	quietPolicy struct{}
)

var (
	quietLocalVerdicts  [16]anomaly.Verdict
	quietRemoteVerdicts [16]anomaly.Verdict
	quietExec           [16]float64
	quietProbs          = []float64{0.1, 0.7, 0.2}
	quietContext        = []float64{1}
)

func init() {
	for i := range quietRemoteVerdicts {
		quietLocalVerdicts[i].Confident = i%2 == 0
		quietRemoteVerdicts[i].Confident = true
	}
}

func (quietLocal) DetectBatch(w [][][]float64) ([]anomaly.Verdict, error) {
	return quietLocalVerdicts[:len(w)], nil
}

func (quietRemote) DetectContext(context.Context, [][]float64) (transport.DetectResult, error) {
	return transport.DetectResult{Verdict: confident(false), ExecMs: 1, NetMs: 2}, nil
}

func (quietRemote) DetectBatchContext(_ context.Context, w [][][]float64) (transport.BatchResult, error) {
	return transport.BatchResult{Verdicts: quietRemoteVerdicts[:len(w)], ExecMsEach: quietExec[:len(w)], NetMs: 2}, nil
}

func (quietPolicy) Probs([]float64) ([]float64, error)     { return quietProbs, nil }
func (quietPolicy) Context([][]float64) ([]float64, error) { return quietContext, nil }
func (quietPolicy) Dim() int                               { return 1 }

// TestDeviceDispatchAllocs pins the dispatch code's own allocations per
// call, per scheme: Run of one window and RunBatch of 16, with Successive
// escalating half the batch to the edge. A scheme rule whose
// one-window case starts building batches, or whose outcome escapes to the
// heap, fails here.
func TestDeviceDispatchAllocs(t *testing.T) {
	dev := &Device{
		Local:       quietLocal{},
		LocalExecMs: func(int) float64 { return 3 },
		Remotes:     [hec.NumLayers]Remote{nil, quietRemote{}, quietRemote{}},
		Policy:      quietPolicy{},
		Extractor:   quietPolicy{},
	}
	ctx := context.Background()
	batch := windowsN(16)
	for _, tc := range []struct {
		scheme     Scheme
		run, batch float64
	}{
		{SchemeIoT, 0, 3},
		{SchemeEdge, 0, 3},
		{SchemeCloud, 0, 3},
		{SchemeSuccessive, 0, 5},
		{SchemeAdaptive, 1, 26},
		{SchemePathological, 1, 26},
	} {
		var err error
		run := testing.AllocsPerRun(50, func() {
			if _, e := dev.Run(ctx, tc.scheme, window); e != nil {
				err = e
			}
		})
		batched := testing.AllocsPerRun(50, func() {
			if _, e := dev.RunBatch(ctx, tc.scheme, batch); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", tc.scheme, err)
		}
		t.Logf("%v: Run %.0f, RunBatch(16) %.0f allocs", tc.scheme, run, batched)
		if run > tc.run || batched > tc.batch {
			t.Errorf("%v: Run %.0f allocs (max %.0f), RunBatch(16) %.0f (max %.0f)", tc.scheme, run, tc.run, batched, tc.batch)
		}
	}
}

// byValue judges a window by its first reading: confident when it is even.
type byValue struct{ stubDetector }

func (byValue) Detect(w [][]float64) (anomaly.Verdict, error) {
	return anomaly.Verdict{Anomaly: w[0][0] > 2, Confident: int(w[0][0])%2 == 0}, nil
}

// byValuePolicy prefers layer (first reading mod 3) and least prefers the
// next one up.
type byValuePolicy struct{}

func (byValuePolicy) Context(w [][]float64) ([]float64, error) { return w[0], nil }
func (byValuePolicy) Dim() int                                 { return 1 }
func (byValuePolicy) Probs(z []float64) ([]float64, error) {
	probs := []float64{0.3, 0.3, 0.3}
	probs[int(z[0])%3] = 0.6
	probs[(int(z[0])+1)%3] = 0.1
	return probs, nil
}

// TestRunBatchMatchesRun checks the batch path against the one-window path
// on windows that split: some escalate while others stop, and the policy
// sends them to different layers. Verdicts, layers and execution time must
// match window for window.
func TestRunBatchMatchesRun(t *testing.T) {
	edge := &stubBatchRemote{stubRemote: stubRemote{verdict: unconfident(), execMs: 5, netMs: 8}}
	cloud := &stubBatchRemote{stubRemote: stubRemote{verdict: confident(true), execMs: 1, netMs: 40}}
	dev := &Device{
		Local:       byValue{},
		LocalExecMs: func(int) float64 { return 3 },
		Remotes:     [hec.NumLayers]Remote{nil, edge, cloud},
		Policy:      byValuePolicy{},
		Extractor:   byValuePolicy{},
	}
	windows := make([][][]float64, 7)
	for i := range windows {
		windows[i] = [][]float64{{float64(i)}}
	}
	ctx := context.Background()
	for _, s := range AllSchemes() {
		outs, err := dev.RunBatch(ctx, s, windows)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		layers := map[hec.Layer]bool{}
		for i, w := range windows {
			one, err := dev.Run(ctx, s, w)
			if err != nil {
				t.Fatalf("%v window %d: %v", s, i, err)
			}
			got := outs[i]
			if got.Verdict != one.Verdict || got.Layer != one.Layer || got.ExecMs != one.ExecMs {
				t.Fatalf("%v window %d: batch %+v, one window %+v", s, i, got, one)
			}
			layers[got.Layer] = true
		}
		if (s == SchemeSuccessive || s == SchemeAdaptive || s == SchemePathological) && len(layers) < 2 {
			t.Fatalf("%v: every window ended at one layer %v; the test lost its split", s, layers)
		}
	}
}
