package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/anomaly"
	"repro/internal/autoencoder"
	"repro/internal/cluster"
	"repro/internal/hec"
	"repro/internal/rnn"
	"repro/internal/routing"
	"repro/internal/transport"
	"repro/internal/workload"
)

// The -bench-json mode: a machine-readable perf snapshot of the batched
// tensor engine against the per-sample baseline, emitted as JSON so the
// repository's perf trajectory (BENCH_N.json files) can be populated and
// diffed by tooling instead of eyeballed from test logs.

// benchSchema identifies the snapshot layout for downstream tooling.
const benchSchema = "hec-bench/1"

// BenchResult is one baseline-vs-variant measurement. The classic results
// compare per-sample ("sequential") against batched execution; the
// serving-plane results reuse the same two slots with explicit Baseline /
// Variant labels (always-busiest vs least-in-flight routing, closed-loop
// vs patterned fleets).
type BenchResult struct {
	// Name identifies the workload (e.g. "autoencoder-train-epoch").
	Name string `json:"name"`
	// Detail describes the workload's shape (model, data sizes).
	Detail string `json:"detail"`
	// BatchSize is the batch the vectorised variant ran with.
	BatchSize int `json:"batch_size"`
	// Baseline / Variant name the two configurations when the pair is not
	// sequential-vs-batched; empty for the classic results.
	Baseline string `json:"baseline,omitempty"`
	Variant  string `json:"variant,omitempty"`
	// SequentialMs / BatchedMs are best-of-reps wall-clock times of the
	// baseline and the variant respectively.
	SequentialMs float64 `json:"sequential_ms"`
	BatchedMs    float64 `json:"batched_ms"`
	// Speedup is SequentialMs / BatchedMs.
	Speedup float64 `json:"speedup"`
}

// BenchSnapshot is the file layout of -bench-json.
type BenchSnapshot struct {
	Schema     string        `json:"schema"`
	GoVersion  string        `json:"go_version"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Reps       int           `json:"reps"`
	Results    []BenchResult `json:"results"`
}

// timeIt returns the best-of-reps wall-clock milliseconds of fn.
func timeIt(reps int, fn func() error) (float64, error) {
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if ms := float64(time.Since(start)) / float64(time.Millisecond); ms < best {
			best = ms
		}
	}
	return best, nil
}

// benchWeeks synthesises smooth normal weeks for throughput measurement
// (detection quality is irrelevant here; the arithmetic is identical).
func benchWeeks(n, dim int, rng *rand.Rand) [][]float64 {
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

// benchTrain measures one AE-Cloud training epoch, per-sample vs batched.
func benchTrain(reps, weeks, batch int) (BenchResult, error) {
	const dim = 672
	data := benchWeeks(weeks, dim, rand.New(rand.NewSource(11)))
	run := func(bs int) func() error {
		return func() error {
			m, err := autoencoder.New(autoencoder.TierCloud, dim, rand.New(rand.NewSource(12)))
			if err != nil {
				return err
			}
			cfg := autoencoder.DefaultTrainConfig()
			cfg.Epochs = 1
			cfg.BatchSize = bs
			_, err = m.Fit(data, cfg, rand.New(rand.NewSource(13)))
			return err
		}
	}
	seq, err := timeIt(reps, run(1))
	if err != nil {
		return BenchResult{}, err
	}
	bat, err := timeIt(reps, run(batch))
	if err != nil {
		return BenchResult{}, err
	}
	return BenchResult{
		Name:         "autoencoder-train-epoch",
		Detail:       fmt.Sprintf("AE-Cloud %d-wide, %d weeks, 1 epoch (incl. scorer fit)", dim, weeks),
		BatchSize:    batch,
		SequentialMs: seq,
		BatchedMs:    bat,
		Speedup:      seq / bat,
	}, nil
}

// benchPrecompute measures hec.Precompute over a trained three-tier
// deployment, batches of one vs batches of N through the same engine, both
// on one worker so the ratio isolates vectorisation from parallelism.
func benchPrecompute(reps, samples, batch int) (BenchResult, error) {
	const dim = 672
	rng := rand.New(rand.NewSource(21))
	train := benchWeeks(24, dim, rng)
	cfg := autoencoder.DefaultTrainConfig()
	cfg.Epochs = 2 // throughput benchmark; detection quality is irrelevant
	cfg.BatchSize = 32
	var dets [hec.NumLayers]anomaly.Detector
	for l, tier := range []autoencoder.Tier{autoencoder.TierIoT, autoencoder.TierEdge, autoencoder.TierCloud} {
		m, err := autoencoder.New(tier, dim, rng)
		if err != nil {
			return BenchResult{}, err
		}
		if _, err := m.Fit(train, cfg, rng); err != nil {
			return BenchResult{}, err
		}
		dets[l] = m
	}
	dep, err := hec.NewDeployment(hec.DefaultTopology(), dets, false)
	if err != nil {
		return BenchResult{}, err
	}
	set := make([]hec.Sample, samples)
	for i := range set {
		week := train[i%len(train)]
		frames := make([][]float64, dim)
		for j, v := range week {
			frames[j] = []float64{v}
		}
		set[i] = hec.Sample{Frames: frames, Label: false}
	}
	run := func(bs int) func() error {
		return func() error {
			_, err := hec.PrecomputeWith(context.Background(), dep, nil, set, hec.PrecomputeOptions{Workers: 1, BatchSize: bs})
			return err
		}
	}
	seq, err := timeIt(reps, run(1))
	if err != nil {
		return BenchResult{}, err
	}
	bat, err := timeIt(reps, run(batch))
	if err != nil {
		return BenchResult{}, err
	}
	return BenchResult{
		Name:         "hec-precompute",
		Detail:       fmt.Sprintf("3 AE tiers × %d weekly samples, 1 worker: batches of %d vs batches of 1, same engine", samples, batch),
		BatchSize:    batch,
		SequentialMs: seq,
		BatchedMs:    bat,
		Speedup:      seq / bat,
	}, nil
}

// benchReconstruct measures what lockstep batching buys the multivariate
// engine: one batch of N windows vs N batches of 1 through the same path.
func benchReconstruct(reps, windows int) (BenchResult, error) {
	const (
		T = 128
		D = 18
	)
	rng := rand.New(rand.NewSource(31))
	m, err := rnn.NewSeq2Seq(rnn.Config{InSize: D, HiddenSize: 16}, rng)
	if err != nil {
		return BenchResult{}, err
	}
	batch := make([][][]float64, windows)
	for w := range batch {
		batch[w] = make([][]float64, T)
		for t := range batch[w] {
			f := make([]float64, D)
			for j := range f {
				f[j] = rng.NormFloat64()
			}
			batch[w][t] = f
		}
	}
	seq, err := timeIt(reps, func() error {
		for _, w := range batch {
			if _, err := m.Reconstruct(w); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return BenchResult{}, err
	}
	bat, err := timeIt(reps, func() error {
		_, err := m.ReconstructBatch(batch)
		return err
	})
	if err != nil {
		return BenchResult{}, err
	}
	return BenchResult{
		Name:         "seq2seq-reconstruct",
		Detail:       fmt.Sprintf("LSTM-seq2seq-IoT, windows of %d×%d: one batch of %d vs %d batches of 1, same engine", T, D, windows, windows),
		BatchSize:    windows,
		SequentialMs: seq,
		BatchedMs:    bat,
		Speedup:      seq / bat,
	}, nil
}

// sleepDetector is the routing benchmark's stand-in model: a fixed
// per-request service time behind a mutex, so each replica behaves like a
// single-core inference server — requests routed to a busy replica queue
// behind it, which is exactly the dynamic that separates good routing from
// bad.
type sleepDetector struct {
	mu        sync.Mutex
	ServiceMs float64
}

func (*sleepDetector) Name() string { return "sleep" }

func (d *sleepDetector) Detect(frames [][]float64) (anomaly.Verdict, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	time.Sleep(time.Duration(d.ServiceMs * float64(time.Millisecond)))
	return anomaly.Verdict{}, nil
}

func (*sleepDetector) NumParams() int           { return 0 }
func (*sleepDetector) FlopsPerWindow(int) int64 { return 0 }

// benchRouting replays the inference-sim experiment at transport scale: 3
// replicas with one deliberately slow instance, 8 concurrent clients, and
// the same request stream routed by the pathological always-busiest policy
// (which herds onto one replica) vs least-in-flight (which steers around
// the slow one). The wall-clock ratio is the price of bad routing.
func benchRouting(reps, requests int) (BenchResult, error) {
	const workers = 8
	// Replica 0 is 4× slower than its peers — the degraded instance a good
	// policy must route around and always-busiest herds onto.
	var srvs []*transport.Server
	for _, serviceMs := range []float64{4, 1, 1} {
		srv, err := transport.Serve("127.0.0.1:0", &sleepDetector{ServiceMs: serviceMs}, nil)
		if err != nil {
			return BenchResult{}, err
		}
		defer srv.Close()
		srvs = append(srvs, srv)
	}
	addrs := []string{srvs[0].Addr(), srvs[1].Addr(), srvs[2].Addr()}
	frames := [][]float64{{0.5}}

	drive := func(policy routing.Policy) func() error {
		return func() error {
			set, err := routing.New(routing.Config{Addrs: addrs, PoolSize: 2, Policy: policy})
			if err != nil {
				return err
			}
			defer set.Close()
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			per := requests / workers
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := set.DetectContext(context.Background(), frames); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			return <-errs
		}
	}
	worstMs, err := timeIt(reps, drive(routing.AlwaysBusiest()))
	if err != nil {
		return BenchResult{}, err
	}
	bestMs, err := timeIt(reps, drive(routing.LeastInFlight()))
	if err != nil {
		return BenchResult{}, err
	}
	return BenchResult{
		Name:         "routing-policy-skewed-replicas",
		Detail:       fmt.Sprintf("3 replicas (4ms/1ms/1ms service), %d workers × %d requests", workers, requests/workers),
		BatchSize:    1,
		Baseline:     "always-busiest",
		Variant:      "least-in-flight",
		SequentialMs: worstMs,
		BatchedMs:    bestMs,
		Speedup:      worstMs / bestMs,
	}, nil
}

// spinDetector is the workload benchmark's stand-in model: a fixed burn
// of floating-point arithmetic per window, on the scale of a real
// IoT-tier forward pass (~20k flops), with no locks and no sleeps. The
// fleet over it is a realistic denominator for the generator-overhead
// ratio — an empty detector would measure the generator against nothing
// and make any overhead look enormous — while staying deterministic and
// contention-free so the two runs differ only by pattern sampling.
type spinDetector struct{}

func (spinDetector) Name() string { return "spin" }
func (spinDetector) Detect([][]float64) (anomaly.Verdict, error) {
	x := 1.0
	for i := 0; i < 4096; i++ {
		x += 1.0 / x
	}
	return anomaly.Verdict{Confident: x > 0}, nil
}
func (spinDetector) NumParams() int           { return 0 }
func (spinDetector) FlopsPerWindow(int) int64 { return 2 * 4096 }

// benchWorkload measures what the scenario engine's workload generator
// costs: the same IoT-local fleet run closed-loop with no pattern vs
// paced through a composite diurnal+burst pattern at BaseInterval 0 —
// identical detection work, with the variant additionally sampling the
// arrival pattern before every window (the engine samples patterns even
// unpaced, precisely so this comparison isolates generator overhead).
// Speedup = baseline/variant wall-clock; ≥ 0.95 certifies the generator
// costs < 5% of a fleet run.
func benchWorkload(reps, devices, rounds int) (BenchResult, error) {
	if reps < 3 {
		// Best-of-3 even in fast mode: the ratio compares two sub-10ms
		// runs, where a single scheduler hiccup would swamp the signal.
		reps = 3
	}
	samples := make([]hec.Sample, 32)
	for i := range samples {
		samples[i] = hec.Sample{Frames: [][]float64{{float64(i % 7)}}, Label: i%2 == 0}
	}
	dev := &cluster.Device{Local: spinDetector{}}
	run := func(p workload.Pattern) func() error {
		return func() error {
			_, err := cluster.RunFleet(context.Background(), dev, samples, cluster.FleetConfig{
				Cohorts: []cluster.Cohort{{Scheme: cluster.SchemeIoT, Devices: devices, Rounds: rounds, Pattern: p}},
			})
			return err
		}
	}
	pat := workload.Sum(
		workload.Diurnal(time.Second, 0.5, 2),
		workload.Burst(250*time.Millisecond, 0.3, 1, 4),
	)
	baseMs, err := timeIt(reps, run(nil))
	if err != nil {
		return BenchResult{}, err
	}
	patMs, err := timeIt(reps, run(pat))
	if err != nil {
		return BenchResult{}, err
	}
	return BenchResult{
		Name:         "workload-generator-overhead",
		Detail:       fmt.Sprintf("%d devices × %d rounds × %d windows, spin detector, diurnal+burst pattern unpaced", devices, rounds, len(samples)),
		BatchSize:    1,
		Baseline:     "closed-loop",
		Variant:      "patterned",
		SequentialMs: baseMs,
		BatchedMs:    patMs,
		Speedup:      baseMs / patMs,
	}, nil
}

// runBenchJSON produces the perf snapshot and writes it to path ("-" for
// stdout). fast shrinks the workloads for CI smoke runs.
func runBenchJSON(path string, fast bool) error {
	reps, weeks, samples, windows := 3, 104, 156, 16
	routeReqs := 256
	fleetDevices, fleetRounds := 64, 40
	if fast {
		reps, weeks, samples, windows = 1, 32, 48, 8
		routeReqs = 64
		fleetRounds = 10
	}
	const batch = 32
	snap := BenchSnapshot{
		Schema:     benchSchema,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Reps:       reps,
	}
	fmt.Fprintf(os.Stderr, "hecbench: measuring batched engine (fast=%v, reps=%d)...\n", fast, reps)
	for _, bench := range []func() (BenchResult, error){
		func() (BenchResult, error) { return benchTrain(reps, weeks, batch) },
		func() (BenchResult, error) { return benchPrecompute(reps, samples, batch) },
		func() (BenchResult, error) { return benchReconstruct(reps, windows) },
		func() (BenchResult, error) { return benchRouting(reps, routeReqs) },
		func() (BenchResult, error) { return benchWorkload(reps, fleetDevices, fleetRounds) },
	} {
		res, err := bench()
		if err != nil {
			return fmt.Errorf("bench-json: %w", err)
		}
		fmt.Fprintf(os.Stderr, "  %-24s seq %8.1fms  batched %8.1fms  %5.2fx\n",
			res.Name, res.SequentialMs, res.BatchedMs, res.Speedup)
		snap.Results = append(snap.Results, res)
	}
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return fmt.Errorf("bench-json: %w", err)
	}
	fmt.Fprintf(os.Stderr, "hecbench: wrote %s\n", path)
	return nil
}
