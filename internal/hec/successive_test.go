package hec_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/anomaly"
	"repro/internal/cluster"
	"repro/internal/hec"
	"repro/internal/transport"
)

// layerDetector judges the value frames[0][layer]: anomalous above 0.5,
// confident below 0.1 or above 0.9, so one window can hold a different
// verdict for each layer.
type layerDetector struct {
	layer hec.Layer
	flops int64
}

func (d layerDetector) Name() string { return "layer-" + d.layer.String() }

func (d layerDetector) Detect(frames [][]float64) (anomaly.Verdict, error) {
	v := frames[0][d.layer]
	return anomaly.Verdict{Anomaly: v > 0.5, Confident: v < 0.1 || v > 0.9}, nil
}

func (d layerDetector) NumParams() int             { return 1 }
func (d layerDetector) FlopsPerWindow(T int) int64 { return d.flops * int64(T) }

// deploymentRemote serves one offload layer of a deployment in-process:
// its detector's verdict, its execution time and its round trip.
type deploymentRemote struct {
	dep   *hec.Deployment
	layer hec.Layer
}

func (r deploymentRemote) DetectContext(_ context.Context, frames [][]float64) (transport.DetectResult, error) {
	v, err := r.dep.Detectors[r.layer].Detect(frames)
	if err != nil {
		return transport.DetectResult{}, err
	}
	exec, err := r.dep.ExecMs(r.layer, len(frames))
	if err != nil {
		return transport.DetectResult{}, err
	}
	rtt, err := r.dep.RTTMs(r.layer)
	if err != nil {
		return transport.DetectResult{}, err
	}
	return transport.DetectResult{Verdict: v, ExecMs: exec, NetMs: rtt, E2EMs: exec + rtt}, nil
}

// successiveRun precomputes one window per entry of values on a deployment
// of layerDetectors with the given per-window FLOPs, and runs each window
// through a device's Successive rule over the same deployment.
func successiveRun(t *testing.T, flops [hec.NumLayers]int64, values [][hec.NumLayers]float64) (*hec.Precomputed, []cluster.Outcome) {
	t.Helper()
	var dets [hec.NumLayers]anomaly.Detector
	for l := range dets {
		dets[l] = layerDetector{layer: hec.Layer(l), flops: flops[l]}
	}
	dep, err := hec.NewDeployment(hec.DefaultTopology(), dets, false)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]hec.Sample, len(values))
	for i := range values {
		samples[i] = hec.Sample{Frames: [][]float64{values[i][:]}}
	}
	pc, err := hec.Precompute(context.Background(), dep, nil, samples)
	if err != nil {
		t.Fatal(err)
	}
	local := dets[hec.LayerIoT]
	execMs, err := dep.Topology.ExecTimeFunc(hec.LayerIoT, local, dep.Recurrent)
	if err != nil {
		t.Fatal(err)
	}
	dev := &cluster.Device{Local: local, LocalExecMs: execMs}
	for l := hec.LayerEdge; l < hec.NumLayers; l++ {
		dev.Remotes[l] = deploymentRemote{dep: dep, layer: l}
	}
	outs := make([]cluster.Outcome, len(samples))
	for i, s := range samples {
		if outs[i], err = dev.Run(context.Background(), cluster.SchemeSuccessive, s.Frames); err != nil {
			t.Fatal(err)
		}
	}
	return pc, outs
}

// TestSuccessiveStopsWhenConfident checks the Successive rule over a
// precomputed outcome table: a window confident at the IoT layer stays
// there at its execution time alone, and a window the IoT model is unsure
// of escalates to the first confident layer, its execution time that of
// every layer tried — the sum Table II adds the final round trip to.
func TestSuccessiveStopsWhenConfident(t *testing.T) {
	pc, outs := successiveRun(t, [hec.NumLayers]int64{10, 100, 1000}, [][hec.NumLayers]float64{
		{0.95, 0.3, 0.3}, // confident at IoT
		{0.3, 0.7, 0.95}, // unsure at IoT and edge: escalates to the cloud
	})
	if outs[0].Layer != hec.LayerIoT || outs[0].DelayMs != pc.Outcomes[0][hec.LayerIoT].ExecMs {
		t.Fatalf("confident window: %+v, want IoT at exec %g only", outs[0], pc.Outcomes[0][hec.LayerIoT].ExecMs)
	}
	d := outs[1]
	if d.Layer != hec.LayerCloud || d.Verdict != pc.Outcomes[1][hec.LayerCloud].Verdict {
		t.Fatalf("unsure window: %+v, want the cloud's verdict %+v", d, pc.Outcomes[1][hec.LayerCloud].Verdict)
	}
	var wantExec, wantNet float64
	for l := hec.LayerIoT; l <= d.Layer; l++ {
		wantExec += pc.Outcomes[1][l].ExecMs
		if l > hec.LayerIoT {
			wantNet += pc.RTTs[l]
		}
	}
	if math.Abs(d.ExecMs-wantExec) > 1e-9 || math.Abs(d.NetMs-wantNet) > 1e-9 {
		t.Fatalf("unsure window: exec %g and net %g, want %g and %g", d.ExecMs, d.NetMs, wantExec, wantNet)
	}
}

// TestQuickSuccessiveDelayBounds checks Successive over random verdicts and
// model costs: each window stops at its first confident layer (the cloud at
// the latest); its Table II delay, the execution time of every layer tried
// plus the round trip to the stopping layer, is at least the IoT execution
// time and at most every execution plus the top-layer round trip; and the
// live delay adds the round trips of the offloads below the stopping layer.
func TestQuickSuccessiveDelayBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var flops [hec.NumLayers]int64
		for l := range flops {
			flops[l] = 1 + rng.Int63n(100000)
		}
		values := make([][hec.NumLayers]float64, 4)
		for i := range values {
			for l := range values[i] {
				values[i][l] = []float64{0.05, 0.3, 0.7, 0.95}[rng.Intn(4)]
			}
		}
		pc, outs := successiveRun(t, flops, values)
		for i, out := range outs {
			final := hec.LayerIoT
			for final < hec.NumLayers-1 && !pc.Outcomes[i][final].Verdict.Confident {
				final++
			}
			var execAll, earlier float64
			for l := hec.LayerIoT; l < hec.NumLayers; l++ {
				execAll += pc.Outcomes[i][l].ExecMs
				if l > hec.LayerIoT && l < final {
					earlier += pc.RTTs[l]
				}
			}
			tableII := out.ExecMs + pc.RTTs[out.Layer]
			lo, hi := pc.Outcomes[i][hec.LayerIoT].ExecMs, execAll+pc.RTTs[hec.NumLayers-1]
			if out.Layer != final || tableII < lo-1e-9 || tableII > hi+1e-9 || math.Abs(out.DelayMs-(tableII+earlier)) > 1e-9 {
				t.Logf("seed %d window %d: stopped at %v with Table II %g ms and live %g ms, want %v in [%g, %g] and live +%g",
					seed, i, out.Layer, tableII, out.DelayMs, final, lo, hi, earlier)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
