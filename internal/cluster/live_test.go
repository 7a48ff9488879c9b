package cluster

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/autoencoder"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/hec"
	"repro/internal/parallel"
	"repro/internal/transport"
)

// TestLiveClusterIntegration is the short-mode end-to-end test the CI
// workflow runs: train a small real AE suite and REINFORCE policy, host the
// edge and cloud detectors as TCP services on loopback with scaled injected
// delays, stream the test split from 8 concurrent simulated devices, and
// check (a) the Adaptive scheme runs live over real sockets with sane
// aggregate metrics and (b) the live metrics expose a deliberately
// pathological policy — the validation methodology for trusting the
// runtime's numbers.
func TestLiveClusterIntegration(t *testing.T) {
	const (
		seed        = 7
		devices     = 8
		edgeOneWay  = 10 * time.Millisecond // testbed's 125 ms scaled 1/12.5
		cloudOneWay = 25 * time.Millisecond
		alphaLive   = 5e-4 * 12.5 // keep α·t calibrated under the scaled delays
	)

	cfg := dataset.DefaultPowerConfig()
	cfg.TrainWeeks = 10
	cfg.TestWeeks = 10
	cfg.PolicyWeeks = 16
	cfg.Seed = seed
	ds, err := dataset.GeneratePower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train := make([][]float64, len(ds.Train))
	for i, s := range ds.Train {
		train[i] = s.Values
	}

	var detectors [hec.NumLayers]*autoencoder.Model
	tiers := [hec.NumLayers]autoencoder.Tier{autoencoder.TierIoT, autoencoder.TierEdge, autoencoder.TierCloud}
	err = parallel.ForEach(0, hec.NumLayers, func(l int) error {
		rng := rand.New(rand.NewSource(seed + int64(l)))
		m, err := autoencoder.New(tiers[l], dataset.ReadingsPerWeek, rng)
		if err != nil {
			return err
		}
		tc := autoencoder.DefaultTrainConfig()
		tc.Epochs = 6
		if _, err := m.Fit(train, tc, rng); err != nil {
			return err
		}
		detectors[l] = m
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Policy trained offline against the calibrated simulator.
	top := hec.DefaultTopology()
	dep, err := hec.NewDeployment(top,
		[hec.NumLayers]anomaly.Detector{detectors[0], detectors[1], detectors[2]}, false)
	if err != nil {
		t.Fatal(err)
	}
	ext := features.UnivariateExtractor{}
	pcfg := hec.DefaultPolicyConfig(5e-4)
	pcfg.Epochs = 8
	policySamples := make([]hec.Sample, len(ds.PolicyTrain))
	for i, s := range ds.PolicyTrain {
		policySamples[i] = hec.Sample{Frames: frames(s.Values), Label: s.Label}
	}
	pc, err := hec.Precompute(context.Background(), dep, ext, policySamples)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := hec.TrainPolicy(pc, pcfg, rand.New(rand.NewSource(seed+100)))
	if err != nil {
		t.Fatal(err)
	}

	// Live remote layers on loopback.
	serve := func(l hec.Layer) *transport.Server {
		execMs, err := top.ExecTimeFunc(l, detectors[l], false)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := transport.Serve("127.0.0.1:0", detectors[l], execMs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	edgeSrv, cloudSrv := serve(hec.LayerEdge), serve(hec.LayerCloud)
	edgePool, err := transport.DialPool(edgeSrv.Addr(), edgeOneWay, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer edgePool.Close()
	cloudPool, err := transport.DialPool(cloudSrv.Addr(), cloudOneWay, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cloudPool.Close()

	localExec, err := top.ExecTimeFunc(hec.LayerIoT, detectors[hec.LayerIoT], false)
	if err != nil {
		t.Fatal(err)
	}
	dev := &Device{
		Local:            detectors[hec.LayerIoT],
		LocalExecMs:      localExec,
		Remotes:          [hec.NumLayers]Remote{nil, edgePool, cloudPool},
		Policy:           pol,
		Extractor:        ext,
		PolicyOverheadMs: 0.1,
	}
	testSamples := make([]hec.Sample, len(ds.Test))
	for i, s := range ds.Test {
		testSamples[i] = hec.Sample{Frames: frames(s.Values), Label: s.Label}
	}

	runScheme := func(s Scheme) *Stats {
		st, err := runCohort(context.Background(), dev, testSamples, Cohort{Scheme: s, Devices: devices, Alpha: alphaLive})
		if err != nil {
			t.Fatalf("live %v run: %v", s, err)
		}
		return st
	}

	adaptive := runScheme(SchemeAdaptive)
	if want := devices * len(testSamples); adaptive.Windows != want {
		t.Fatalf("adaptive windows = %d, want %d", adaptive.Windows, want)
	}
	if acc := adaptive.Accuracy(); acc < 0.6 {
		t.Fatalf("live adaptive accuracy = %.3f, want ≥ 0.6", acc)
	}
	var mixSum float64
	for _, share := range adaptive.LayerMix() {
		mixSum += share
	}
	if mixSum < 0.999 || mixSum > 1.001 {
		t.Fatalf("layer mix sums to %g, want 1", mixSum)
	}
	if adaptive.Throughput() <= 0 {
		t.Fatal("adaptive throughput not measured")
	}
	p50, p95, p99 := adaptive.Delays.Percentile(50), adaptive.Delays.Percentile(95), adaptive.Delays.Percentile(99)
	if p50 > p95 || p95 > p99 {
		t.Fatalf("percentiles not monotone: %g %g %g", p50, p95, p99)
	}

	// Pathological-policy validation: routing every window to the policy's
	// least-preferred layer must show up in the live numbers as strictly
	// worse delay and worse reward, or the metrics pipeline is lying.
	pathological := runScheme(SchemePathological)
	if pathological.Delays.Mean() <= adaptive.Delays.Mean() {
		t.Fatalf("pathological mean delay %.1f ms ≤ adaptive %.1f ms: live metrics failed to expose a bad policy",
			pathological.Delays.Mean(), adaptive.Delays.Mean())
	}
	if pathological.Reward.Mean() >= adaptive.Reward.Mean() {
		t.Fatalf("pathological mean reward %.3f ≥ adaptive %.3f: live metrics failed to expose a bad policy",
			pathological.Reward.Mean(), adaptive.Reward.Mean())
	}

	// The successive baseline also runs live end-to-end.
	successive := runScheme(SchemeSuccessive)
	if successive.Windows != adaptive.Windows {
		t.Fatalf("successive windows = %d, want %d", successive.Windows, adaptive.Windows)
	}
}

func frames(values []float64) [][]float64 {
	out := make([][]float64, len(values))
	for i, v := range values {
		out[i] = []float64{v}
	}
	return out
}
