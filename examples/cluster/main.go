// Cluster: the live HEC runtime over real TCP with tc-style latency
// injection, mirroring the paper's Raspberry Pi / Jetson / Devbox testbed.
// Unlike the precompute-and-replay simulator, everything here happens over
// sockets: the edge and cloud detectors run as replicated TCP services
// (-replicas in-process servers per tier by default, or external hecnode
// processes via -edge/-cloud), simulated IoT devices stream windows
// concurrently through health-checked replica sets, and the trained
// REINFORCE policy routes each window live.
//
// The demo exercises all five paper schemes plus a deliberately bad
// "pathological" policy (the trained policy's least-preferred layer) to
// validate that the live metrics can tell a good policy from a bad one,
// then retrains the edge detector mid-stream and pushes it to the live
// replicas as a content-addressed delta update (zero dropped windows, zero
// restarts), and kills an edge replica mid-stream to demonstrate
// transparent failover. Every model pull — the shipped-model check over
// one connection and the device's fetch and delta refresh over the edge
// replica set — runs through transport.RefreshModel. Any failed check
// exits non-zero.
//
// Two-terminal usage against external nodes (same -seed everywhere):
//
//	hecnode -layer edge  -addr 127.0.0.1:7101   # terminal 1
//	hecnode -layer cloud -addr 127.0.0.1:7102   # terminal 2
//	go run ./examples/cluster -edge 127.0.0.1:7101 -cloud 127.0.0.1:7102
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/anomaly"
	"repro/internal/autoencoder"
	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/hec"
	"repro/internal/parallel"
	"repro/internal/routing"
	"repro/internal/transport"
	"repro/internal/workload"
)

func main() {
	var (
		devices  = flag.Int("devices", 8, "concurrent simulated IoT devices")
		rounds   = flag.Int("rounds", 2, "passes over the test split per device")
		scale    = flag.Int("scale", 25, "divide the testbed's injected link delays by this factor")
		poolSize = flag.Int("pool", 4, "pooled connections per replica")
		replicas = flag.Int("replicas", 2, "in-process server replicas per remote tier")
		policy   = flag.String("routing", "least-in-flight", "replica routing policy: round-robin | least-in-flight | power-of-two | always-busiest")
		seed     = flag.Int64("seed", 1, "training seed (must match external hecnodes)")
		edgeAddr = flag.String("edge", "", "external edge hecnode address (default: in-process replicas)")
		cloudAdr = flag.String("cloud", "", "external cloud hecnode address (default: in-process replicas)")
		batch    = flag.Int("batch", 0, "windows shipped per request (<2 = per-window dispatch)")
		scenario = flag.String("scenario", "", "scripted fault scenario over a mixed cohort fleet: spike-kill | straggler | flap (needs in-process edge replicas)")
		elastic  = flag.Bool("autoscale", false, "elastic-fleet demo: a load spike drives the cloud tier 1→4 replicas and drains back to 1 (needs in-process cloud replicas)")
		schedPol = flag.String("sched", "", "server-side scheduler demo: run the deadline-overload burst under this queue policy vs a FIFO baseline (fifo | edf | slo | reverse-edf); skips the live fleet run")
	)
	flag.Parse()
	// ^C cancels the context, which drains the device fleet promptly: each
	// device stops at its next window and in-flight RPCs abort through the
	// deadline-propagating transport.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *schedPol != "" {
		// The scheduler demo is self-contained (its own paced server, no
		// trained models): dispatch before the training pipeline spins up.
		if err := runSchedDemo(*schedPol); err != nil {
			log.Fatal(err)
		}
		return
	}
	err := run(ctx, *devices, *rounds, *scale, *poolSize, *replicas, *policy, *seed, *edgeAddr, *cloudAdr, *batch, *scenario, *elastic)
	if errors.Is(err, context.Canceled) {
		fmt.Println("\ninterrupted — device fleet drained")
		return
	}
	if err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, devices, rounds, scale, poolSize, replicas int, policyName string, seed int64, edgeAddr, cloudAddr string, batch int, scenario string, elastic bool) error {
	if elastic && cloudAddr != "" {
		return fmt.Errorf("-autoscale needs in-process cloud replicas: drop -cloud")
	}
	if scale < 1 {
		scale = 1
	}
	if replicas < 1 {
		replicas = 1
	}
	routePolicy, err := routing.ParsePolicy(policyName)
	if err != nil {
		return err
	}
	// The same dataset recipe hecnode trains with, so external nodes built
	// from the same seed hold byte-identical models.
	cfg := dataset.DefaultPowerConfig()
	cfg.TrainWeeks = 40
	cfg.TestWeeks = 26
	cfg.PolicyWeeks = 30
	cfg.Seed = seed
	ds, err := dataset.GeneratePower(cfg)
	if err != nil {
		return err
	}
	train := make([][]float64, len(ds.Train))
	for i, s := range ds.Train {
		train[i] = s.Values
	}

	// Train the three-autoencoder suite concurrently (hecnode's recipe).
	fmt.Println("training the AE suite (IoT, edge, cloud)...")
	var detectors [hec.NumLayers]*autoencoder.Model
	tiers := [hec.NumLayers]autoencoder.Tier{autoencoder.TierIoT, autoencoder.TierEdge, autoencoder.TierCloud}
	err = parallel.ForEach(0, hec.NumLayers, func(l int) error {
		rng := rand.New(rand.NewSource(seed + int64(l)))
		m, err := autoencoder.New(tiers[l], dataset.ReadingsPerWeek, rng)
		if err != nil {
			return err
		}
		tc := autoencoder.DefaultTrainConfig()
		tc.Epochs = 25
		if _, err := m.Fit(train, tc, rng); err != nil {
			return err
		}
		if hec.Layer(l) != hec.LayerCloud {
			m.Quantize()
		}
		detectors[l] = m
		return nil
	})
	if err != nil {
		return err
	}

	// Train the routing policy offline against the calibrated simulator —
	// the paper's train-from-logged-detections step — then deploy it live.
	top := hec.DefaultTopology()
	dep, err := hec.NewDeployment(top, [hec.NumLayers]anomaly.Detector{detectors[0], detectors[1], detectors[2]}, false)
	if err != nil {
		return err
	}
	ext := features.UnivariateExtractor{}
	pcfg := hec.DefaultPolicyConfig(5e-4) // the paper's univariate α
	pcfg.Epochs = 15
	dep.PolicyOverheadMs = float64(2*ext.Dim()*pcfg.Hidden+2*pcfg.Hidden*hec.NumLayers) /
		top.Devices[hec.LayerIoT].DenseFlopsPerMs
	fmt.Println("training the REINFORCE routing policy on the policy split...")
	policySamples := make([]hec.Sample, len(ds.PolicyTrain))
	for i, s := range ds.PolicyTrain {
		policySamples[i] = hec.Sample{Frames: uniFrames(s.Values), Label: s.Label}
	}
	policyPC, err := hec.Precompute(ctx, dep, ext, policySamples)
	if err != nil {
		return err
	}
	pol, err := hec.TrainPolicy(policyPC, pcfg, rand.New(rand.NewSource(seed+100)))
	if err != nil {
		return err
	}

	// Stand up the remote tiers as replica fleets: -replicas in-process
	// servers per tier, unless an external hecnode address was given (then
	// that single node is the tier's only replica).
	var edgeAddrs, cloudAddrs []string
	var edgeSrvs []*transport.Server
	if edgeAddr != "" {
		edgeAddrs = []string{edgeAddr}
	} else {
		for i := 0; i < replicas; i++ {
			srv, err := serveLayer(hec.LayerEdge, detectors[hec.LayerEdge], top)
			if err != nil {
				return err
			}
			defer srv.Close()
			edgeSrvs = append(edgeSrvs, srv)
			edgeAddrs = append(edgeAddrs, srv.Addr())
		}
	}
	cloudReplicas := replicas
	if elastic {
		// The elastic demo starts the cloud tier at its floor; the
		// autoscaler provides the rest on demand.
		cloudReplicas = 1
	}
	if cloudAddr != "" {
		cloudAddrs = []string{cloudAddr}
	} else {
		for i := 0; i < cloudReplicas; i++ {
			srv, err := serveLayer(hec.LayerCloud, detectors[hec.LayerCloud], top)
			if err != nil {
				return err
			}
			defer srv.Close()
			cloudAddrs = append(cloudAddrs, srv.Addr())
		}
	}
	fmt.Printf("edge replicas %v, cloud replicas %v, routing %s\n", edgeAddrs, cloudAddrs, routePolicy.Name())

	// Model-shipping sanity check: fetch the edge model over the RPC,
	// rebuild it locally, and confirm verdict parity on one window.
	if err := verifyShippedModel(edgeAddrs[0], detectors[hec.LayerEdge], ds.Test[0]); err != nil {
		return err
	}

	// Health-checked replica sets with injected one-way delays: 125 ms to
	// the edge and 250 ms to the cloud (two hops), scaled down 1/scale so
	// the demo finishes quickly. Every request is routed by routePolicy and
	// fails over inside the set's retry budget.
	edgeSet, err := routing.New(routing.Config{
		Addrs:          edgeAddrs,
		Dial:           transport.DialOptions{OneWay: 125 * time.Millisecond / time.Duration(scale)},
		PoolSize:       poolSize,
		Policy:         routePolicy,
		HealthInterval: time.Second,
	})
	if err != nil {
		return err
	}
	defer edgeSet.Close()
	cloudSet, err := routing.New(routing.Config{
		Addrs:          cloudAddrs,
		Dial:           transport.DialOptions{OneWay: 250 * time.Millisecond / time.Duration(scale)},
		PoolSize:       poolSize,
		Policy:         routePolicy,
		HealthInterval: time.Second,
	})
	if err != nil {
		return err
	}
	defer cloudSet.Close()

	localExec, err := top.ExecTimeFunc(hec.LayerIoT, detectors[hec.LayerIoT], false)
	if err != nil {
		return err
	}
	dev := &cluster.Device{
		Local:            detectors[hec.LayerIoT],
		LocalExecMs:      localExec,
		Remotes:          [hec.NumLayers]cluster.Remote{nil, edgeSet, cloudSet},
		Policy:           pol,
		Extractor:        ext,
		PolicyOverheadMs: dep.PolicyOverheadMs,
	}

	testSamples := make([]hec.Sample, len(ds.Test))
	for i, s := range ds.Test {
		testSamples[i] = hec.Sample{Frames: uniFrames(s.Values), Label: s.Label}
	}

	if elastic {
		return runAutoscale(ctx, dev, cloudSet, detectors[hec.LayerCloud], top, testSamples, devices, rounds)
	}
	if scenario != "" {
		return runScenario(ctx, dev, edgeSet, edgeSrvs, testSamples, scenario, devices, rounds)
	}

	fmt.Printf("\nlive run: %d devices × %d rounds × %d windows, link delays scaled 1/%d\n",
		devices, rounds, len(testSamples), scale)
	if batch > 1 {
		fmt.Printf("batch mode: %d windows per request\n", batch)
	}
	fmt.Println()
	for _, scheme := range cluster.AllSchemes() {
		fs, err := cluster.RunFleet(ctx, dev, testSamples, cluster.FleetConfig{
			Cohorts: []cluster.Cohort{{Scheme: scheme, Devices: devices, Rounds: rounds, Alpha: 5e-4, BatchSize: batch}},
		})
		if err != nil {
			return fmt.Errorf("running %v live: %w", scheme, err)
		}
		fmt.Println(fs.Cohorts[0])
	}
	fmt.Println("\n(Pathological routes every window to the policy's least-preferred layer;")
	fmt.Println(" healthy live metrics must show it losing to Adaptive on delay and reward.)")

	if len(edgeSrvs) > 0 {
		if err := distributionDemo(ctx, dev, edgeSet, edgeSrvs, testSamples); err != nil {
			return err
		}
	}
	if len(edgeSrvs) > 1 {
		if err := failoverDemo(ctx, dev, edgeSet, edgeSrvs[0], testSamples); err != nil {
			return err
		}
	}
	return nil
}

// runScenario replaces the per-scheme sweep with the scenario engine: a
// heterogeneous cohort fleet (edge, cloud and adaptive devices live at
// once, the edge cohort paced by an arrival pattern) driven under a
// scripted fault timeline against the in-process edge replicas. The
// run's report shows the per-cohort live metrics plus the routing
// layer's per-replica view of the faults: requests, failures, expels
// and readmits on the victim, the survivors carrying the traffic.
func runScenario(ctx context.Context, dev *cluster.Device, edgeSet *routing.ReplicaSet, edgeSrvs []*transport.Server, samples []hec.Sample, name string, devices, rounds int) error {
	if len(edgeSrvs) < 2 {
		return fmt.Errorf("scenario %q needs ≥2 in-process edge replicas (got %d): raise -replicas and drop -edge", name, len(edgeSrvs))
	}
	victim := edgeSrvs[0]
	atLeast1 := func(n int) int {
		if n < 1 {
			return 1
		}
		return n
	}
	edgeDev := atLeast1(devices / 2)
	cloudDev := atLeast1(devices / 4)
	adaptDev := atLeast1(devices - edgeDev - cloudDev)
	totalWindows := int64((edgeDev + cloudDev + adaptDev) * rounds * len(samples))

	var edgePattern workload.Pattern
	var sc *cluster.Scenario
	switch name {
	case "spike-kill":
		// A flash crowd hits the edge cohort and one edge replica dies a
		// quarter of the way in; the probe afterwards forces the health
		// checker to record the expulsion before the run ends.
		edgePattern = workload.Spike(100*time.Millisecond, 300*time.Millisecond, 1, 8)
		sc = &cluster.Scenario{Name: "spike-kill", Events: []cluster.Event{
			{AfterWindows: totalWindows / 4, Action: cluster.Kill(victim)},
			{AfterWindows: totalWindows / 2, Action: cluster.Probe(edgeSet)},
		}}
	case "straggler":
		// One edge replica turns slow (not dead) mid-run, then recovers:
		// the routing policy's job is to steer around it in between.
		sc = &cluster.Scenario{Name: "straggler", Events: []cluster.Event{
			{AfterWindows: totalWindows / 5, Action: cluster.Straggle(victim, 40*time.Millisecond)},
			{AfterWindows: 4 * totalWindows / 5, Action: cluster.Heal(victim)},
		}}
	case "flap":
		// The victim's network partitions and heals twice; each probe
		// flips its membership, so the report must show expels AND
		// readmits with the replica healthy again at the end.
		edgePattern = workload.Uniform(1)
		sc = &cluster.Scenario{Name: "flap", Events: cluster.FlapEvents(victim, edgeSet, 25*time.Millisecond, 50*time.Millisecond, 2)}
	default:
		return fmt.Errorf("unknown scenario %q (spike-kill | straggler | flap)", name)
	}

	cohorts := []cluster.Cohort{
		{Name: "edge", Scheme: cluster.SchemeEdge, Devices: edgeDev, Rounds: rounds, Alpha: 5e-4, Pattern: edgePattern},
		{Name: "cloud", Scheme: cluster.SchemeCloud, Devices: cloudDev, Rounds: rounds, Alpha: 5e-4},
		{Name: "adaptive", Scheme: cluster.SchemeAdaptive, Devices: adaptDev, Rounds: rounds, Alpha: 5e-4},
	}
	fmt.Printf("\nscenario %q: %d edge + %d cloud + %d adaptive devices × %d rounds × %d windows, victim %s\n",
		name, edgeDev, cloudDev, adaptDev, rounds, len(samples), victim.Addr())
	for _, ev := range sc.Events {
		fmt.Printf("  @%v/≥%d windows: %s\n", ev.At, ev.AfterWindows, ev.Action.Describe())
	}
	fs, err := cluster.RunFleet(ctx, dev, samples, cluster.FleetConfig{
		Cohorts:      cohorts,
		BaseInterval: 2 * time.Millisecond,
		Scenario:     sc,
	})
	if err != nil {
		return fmt.Errorf("scenario %q: %w", name, err)
	}
	fmt.Println()
	fmt.Print(fs.Report())
	return nil
}

// runAutoscale is the elastic-fleet demo: the cloud tier starts at one
// replica under an autoscaling control loop whose spawner serves more
// in-process cloud replicas on demand. A flash-crowd cohort (workload.
// Spike) floods the tier, the controller rides the spike up to four
// replicas, and once traffic stops the cooldown-gated drain walks the
// tier back down to one — with every in-flight window finishing first, so
// the run completes with zero dropped windows.
func runAutoscale(ctx context.Context, dev *cluster.Device, cloudSet *routing.ReplicaSet, cloudDet *autoencoder.Model, top hec.Topology, samples []hec.Sample, devices, rounds int) error {
	snap, err := cluster.SnapshotDetector(cloudDet, hec.LayerCloud.String(), false)
	if err != nil {
		return err
	}
	execMs, err := top.ExecTimeFunc(hec.LayerCloud, cloudDet, false)
	if err != nil {
		return err
	}
	spawner := autoscale.ServeSpawner(cloudDet, transport.ServerOptions{ExecMs: execMs, Model: snap})
	ctl, err := autoscale.New(autoscale.Config{
		Name:      "cloud",
		Collector: autoscale.CollectSet(cloudSet),
		Policy: &autoscale.TargetUtilization{
			TargetInFlight: 2,
			Min:            1,
			Max:            4,
			UpCooldown:     100 * time.Millisecond,
			DownCooldown:   300 * time.Millisecond,
		},
		Actuator: autoscale.NewSetActuator(cloudSet, spawner),
		Interval: 10 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer ctl.Close()

	// A flash crowd: quiet for 200 ms, then every device hammers the cloud
	// tier flat-out for two seconds, then quiet again.
	pattern := workload.Spike(200*time.Millisecond, 2*time.Second, 0.25, 40)
	cohorts := []cluster.Cohort{
		{Name: "cloud-spike", Scheme: cluster.SchemeCloud, Devices: devices, Rounds: rounds, Alpha: 5e-4, Pattern: pattern},
	}
	fmt.Printf("\nelastic demo: %d devices × %d rounds ride %s against a 1-replica cloud tier (max 4)\n",
		devices, rounds, pattern.Name())
	fs, err := cluster.RunFleet(ctx, dev, samples, cluster.FleetConfig{
		Cohorts:      cohorts,
		BaseInterval: 2 * time.Millisecond,
		Autoscalers:  []*autoscale.Controller{ctl},
	})
	if err != nil {
		return fmt.Errorf("elastic demo: %w", err)
	}
	fmt.Println()
	fmt.Print(fs.Report())

	// Traffic is gone; keep stepping the controller so the cooldown-gated
	// drain can walk the tier back to its floor.
	fmt.Printf("\ndraining: %d replicas serving, scaling back to 1...\n", cloudSet.Size())
	deadline := time.Now().Add(15 * time.Second)
	for cloudSet.Size() > 1 && time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := ctl.Step(ctx, time.Now()); err != nil {
			return fmt.Errorf("elastic demo drain: %w", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	st := ctl.Status()
	if cloudSet.Size() != 1 {
		return fmt.Errorf("elastic demo: cloud tier stuck at %d replicas after drain window", cloudSet.Size())
	}
	fmt.Printf("spike absorbed: %d windows, replicas 1→%d→%d, %d scale-ups / %d scale-downs, zero dropped windows\n",
		fs.Total.Windows, st.HighWater, cloudSet.Size(), st.ScaleUps, st.ScaleDowns)
	return nil
}

// distributionDemo is the live model-distribution exercise: while a stream
// of edge-routed windows is in flight, the "cloud tier" retrains the edge
// detector (a recalibrated output bias plus a cranked detection threshold)
// and pushes it to every live edge replica with an atomic hot swap — no
// process restarts, and not a single window drops. A device that fetched
// the old model then catches up with a version probe + one-tensor delta
// instead of re-downloading the snapshot, and the refreshed model is
// observable: the cranked threshold flips the post-swap edge verdict.
func distributionDemo(ctx context.Context, dev *cluster.Device, edgeSet *routing.ReplicaSet, edgeSrvs []*transport.Server, samples []hec.Sample) error {
	// A device joins the fleet: full chunked fetch of the current model.
	base, _, err := transport.RefreshModel(ctx, edgeSet, nil)
	if err != nil {
		return fmt.Errorf("distribution demo: initial fetch: %w", err)
	}
	fullPayload, err := transport.EncodeModel(base, nil)
	if err != nil {
		return err
	}
	baseMan, err := transport.ManifestOf(base)
	if err != nil {
		return err
	}

	const workers, perWorker = 4, 25
	fmt.Printf("\ndistribution demo: %d workers stream %d edge windows each; retraining mid-stream\n",
		workers, perWorker)
	var (
		wg       sync.WaitGroup
		detected atomic.Int64
		firstErr = make(chan error, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := dev.Run(ctx, cluster.SchemeEdge, samples[(w*perWorker+i)%len(samples)].Frames); err != nil {
					firstErr <- fmt.Errorf("window %d/%d: %w", w, i, err)
					return
				}
				detected.Add(1)
			}
		}(w)
	}
	streamDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(streamDone)
	}()

	// Wait until the stream is provably mid-flight, then roll the model:
	// nudge the output bias (the retrained tensor) and crank the detection
	// threshold so the swap is observable as a verdict flip.
	next, err := transport.DecodeModel(fullPayload)
	if err != nil {
		return err
	}
	lastTensor := len(next.Weights.Values) - 1
	for i := range next.Weights.Values[lastTensor] {
		next.Weights.Values[lastTensor][i] += 1e-3
	}
	next.Scorer.Threshold = 1e18
	retrained, _, err := cluster.RestoreDetector(next)
	if err != nil {
		return err
	}
waitRoll:
	for detected.Load() < workers*perWorker/4 {
		select {
		case <-streamDone:
			break waitRoll
		case <-time.After(time.Millisecond):
		}
	}
	for _, srv := range edgeSrvs {
		if err := srv.UpdateModel(retrained, nil, next); err != nil {
			return fmt.Errorf("distribution demo: pushing model to %s: %w", srv.Addr(), err)
		}
	}
	<-streamDone
	close(firstErr)
	if err := <-firstErr; err != nil {
		return fmt.Errorf("distribution demo dropped a window: %w", err)
	}

	// The device catches up: version probe, then a delta carrying only the
	// changed tensor, hash-verified against the fleet's advertised version.
	refreshed, upToDate, err := transport.RefreshModel(ctx, edgeSet, base)
	if err != nil || upToDate {
		return fmt.Errorf("distribution demo: delta refresh: upToDate=%v err=%v", upToDate, err)
	}
	man, err := transport.ManifestOf(refreshed)
	if err != nil {
		return err
	}
	if got := edgeSrvs[0].ModelVersion(); man.Version != got {
		return fmt.Errorf("distribution demo: refreshed model hashes to %.8s, fleet serves %.8s", man.Version, got)
	}
	want := man.Diff(baseMan)
	deltaPayload, err := transport.EncodeModel(refreshed, want)
	if err != nil {
		return err
	}
	out, err := dev.Run(ctx, cluster.SchemeEdge, samples[0].Frames)
	if err != nil {
		return err
	}
	if !out.Verdict.Anomaly {
		return fmt.Errorf("distribution demo: cranked threshold did not flip the post-swap verdict")
	}
	fmt.Printf("  %d/%d windows detected during the roll, zero dropped, zero restarts\n",
		detected.Load(), workers*perWorker)
	fmt.Printf("  version %.8s → %.8s pushed to %d live replicas; device caught up with a\n",
		baseMan.Version, man.Version, len(edgeSrvs))
	fmt.Printf("  %d-tensor delta: %d B vs %d B full (%.1f× less on the wire); verdict flip confirms the swap\n",
		len(want), len(deltaPayload), len(fullPayload), float64(len(fullPayload))/float64(len(deltaPayload)))
	return nil
}

// failoverDemo kills one edge replica while a stream of edge-routed
// windows is in flight and shows that not a single window fails: broken
// attempts retry onto the surviving replicas inside the set's budget, and
// the health checker expels the dead member.
func failoverDemo(ctx context.Context, dev *cluster.Device, edgeSet *routing.ReplicaSet, victim *transport.Server, samples []hec.Sample) error {
	const workers, perWorker = 4, 30
	fmt.Printf("\nfailover demo: %d workers stream %d edge windows each; killing replica %s mid-run\n",
		workers, perWorker, victim.Addr())
	var (
		wg       sync.WaitGroup
		detected atomic.Int64
		firstErr = make(chan error, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := dev.Run(ctx, cluster.SchemeEdge, samples[(w*perWorker+i)%len(samples)].Frames); err != nil {
					firstErr <- fmt.Errorf("window %d/%d: %w", w, i, err)
					return
				}
				detected.Add(1)
			}
		}(w)
	}
	// Kill the victim once the stream is provably mid-flight (a quarter of
	// the windows done), so the failover happens under live traffic. If the
	// stream dies first — ^C, or the whole tier failing — stop waiting and
	// report instead of spinning.
	streamDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(streamDone)
	}()
waitKill:
	for detected.Load() < workers*perWorker/4 {
		select {
		case <-streamDone:
			break waitKill
		case <-time.After(time.Millisecond):
		}
	}
	victim.Close()
	<-streamDone
	close(firstErr)
	if err := <-firstErr; err != nil {
		return fmt.Errorf("failover demo lost a window: %w", err)
	}
	edgeSet.CheckHealth() // refresh membership before reporting
	fmt.Printf("  %d/%d windows detected, zero errors, through replicas:\n", detected.Load(), workers*perWorker)
	for _, st := range edgeSet.Status() {
		fmt.Printf("    %-21s healthy=%-5v requests=%-4d failures=%-3d evicted-conns=%d\n",
			st.Addr, st.Healthy, st.Requests, st.Failures, st.EvictedConns)
	}
	return nil
}

// serveLayer hosts one detector as an in-process TCP service with the
// calibrated execution-time model and its model snapshot attached.
func serveLayer(l hec.Layer, det *autoencoder.Model, top hec.Topology) (*transport.Server, error) {
	snap, err := cluster.SnapshotDetector(det, l.String(), l != hec.LayerCloud)
	if err != nil {
		return nil, err
	}
	execMs, err := top.ExecTimeFunc(l, det, false)
	if err != nil {
		return nil, err
	}
	return transport.ServeWith("127.0.0.1:0", det, transport.ServerOptions{ExecMs: execMs, Model: snap})
}

// verifyShippedModel exercises the model-shipping RPC: fetch the remote
// detector's weights, rebuild it locally, and check it agrees with the
// original on a window.
func verifyShippedModel(addr string, original anomaly.Detector, sample dataset.UniSample) error {
	cli, err := transport.Dial(addr, 0)
	if err != nil {
		return err
	}
	defer cli.Close()
	snap, _, err := transport.RefreshModel(context.Background(), cli, nil)
	if err != nil {
		return fmt.Errorf("fetching model: %w", err)
	}
	restored, _, err := cluster.RestoreDetector(snap)
	if err != nil {
		return err
	}
	frames := uniFrames(sample.Values)
	want, err := original.Detect(frames)
	if err != nil {
		return err
	}
	got, err := restored.Detect(frames)
	if err != nil {
		return err
	}
	if got.Anomaly != want.Anomaly || got.Confident != want.Confident {
		return fmt.Errorf("model shipped over RPC disagrees with the original: got %+v want %+v", got, want)
	}
	fmt.Printf("model-shipping RPC verified: fetched %s/%s (%d params) reproduces the remote's verdicts\n",
		snap.Kind, snap.Tier, restored.NumParams())
	return nil
}

func uniFrames(values []float64) [][]float64 {
	frames := make([][]float64, len(values))
	for i, v := range values {
		frames[i] = []float64{v}
	}
	return frames
}
