package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"

	"repro/internal/autoencoder"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/rnn"
)

// The -roofline mode: measures this machine's compute and memory ceilings,
// then places the packed matrix micro-kernel and one single-window LSTM step
// of every dispatch level on the roofline so a snapshot diff shows whether a
// kernel regressed against the hardware rather than against a previous
// build. The emitted file (BENCH_8.json style) also carries the two
// CI-gated comparisons: AVX2-over-SSE2 on a batched training epoch, and
// cached packed panels over repacking on steady-state inference.

// rooflineSchema identifies the snapshot layout for downstream tooling.
const rooflineSchema = "hec-roofline/3"

// RooflinePoint is one kernel placed on the roofline model.
type RooflinePoint struct {
	// Name identifies the kernel configuration, e.g. "mulbt-f64-avx2".
	Name string `json:"name"`
	// Kernel is the dispatch level the measurement ran under.
	Kernel string `json:"kernel"`
	// Shape describes the product measured, m×k · (n×k)ᵀ.
	Shape string `json:"shape"`
	// Flops and MovedBytes are per-call work and minimum memory traffic
	// (inputs read once, outputs written once).
	Flops      int64 `json:"flops"`
	MovedBytes int64 `json:"moved_bytes"`
	// Ms is the best-of-reps wall-clock per call.
	Ms float64 `json:"ms"`
	// GFlops is the achieved throughput.
	GFlops float64 `json:"gflops"`
	// Intensity is Flops/MovedBytes, the roofline x-coordinate.
	Intensity float64 `json:"intensity_flops_per_byte"`
	// CeilingGFlops is min(peak, intensity×bandwidth) — the roofline over
	// this point.
	CeilingGFlops float64 `json:"ceiling_gflops"`
	// Bound is "compute" when the point sits right of the ridge (the
	// machine's peak caps it) and "bandwidth" when memory traffic does.
	Bound string `json:"bound"`
	// Efficiency is GFlops/CeilingGFlops.
	Efficiency float64 `json:"efficiency"`
	// Split divides a recurrent step's time by kind of work (lstm-step
	// points only).
	Split *StepSplit `json:"split,omitempty"`
}

// StepSplit divides one recurrent step's wall-clock time, in µs per step.
type StepSplit struct {
	// StepUs is the whole step; the other three sum to it.
	StepUs float64 `json:"step_us"`
	// ProductsUs is x·Wxᵀ and h·Whᵀ, timed alone on the same panels.
	ProductsUs float64 `json:"products_us"`
	// CopiesUs is copying the frame into the step's input row.
	CopiesUs float64 `json:"copies_us"`
	// ActivationsUs is the rest of the step: the gate cell (bias, the
	// exponentials, sigmoid and tanh, the state update).
	ActivationsUs float64 `json:"activations_us"`
	// ActivationsShare is ActivationsUs/StepUs.
	ActivationsShare float64 `json:"activations_share"`
}

// RooflineSnapshot is the file layout of -roofline.
type RooflineSnapshot struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Reps       int    `json:"reps"`
	// Kernels lists the dispatch levels available on this CPU;
	// AVX2Available is the skip-not-fail signal for the CI speedup gate.
	Kernels       []string `json:"kernels"`
	AVX2Available bool     `json:"avx2_available"`
	// PeakGFlops is the measured compute ceiling: the widest mul+add
	// micro-kernel on L1-resident panels (not a theoretical FMA peak —
	// the repo's kernels deliberately avoid FMA for reproducibility).
	PeakGFlops float64 `json:"peak_gflops"`
	// BandwidthGBs is the measured memory ceiling: a streaming axpy over
	// buffers far beyond cache.
	BandwidthGBs float64 `json:"bandwidth_gbs"`
	// RidgeIntensity is PeakGFlops/BandwidthGBs — points left of it are
	// bandwidth-bound.
	RidgeIntensity float64 `json:"ridge_intensity"`

	Points  []RooflinePoint `json:"points"`
	Results []BenchResult   `json:"results"`
}

// withKernelRestore runs fn under the named dispatch level and restores the
// previous one.
func withKernelRestore(name string, fn func() error) error {
	prev := mat.KernelName()
	if err := mat.SetKernel(name); err != nil {
		return err
	}
	defer mat.SetKernel(prev)
	return fn()
}

func fillRand(data []float64, rng *rand.Rand) {
	for i := range data {
		data[i] = rng.NormFloat64()
	}
}

// measurePeakGFlops times the packed mul kernel on an L1-resident product
// (8×96 · (16×96)ᵀ ≈ 18 KiB of operands) under the best available dispatch
// level. The shape stays under the fan-out thresholds, so this is one
// core's ceiling — the roofline is per-core by construction, matching the
// per-goroutine kernels it bounds.
func measurePeakGFlops(reps int) (float64, error) {
	const m, k, n, iters = 8, 96, 16, 4000
	rng := rand.New(rand.NewSource(41))
	a := mat.New(m, k)
	b := mat.New(n, k)
	fillRand(a.Data, rng)
	fillRand(b.Data, rng)
	p := mat.Pack(b)
	dst := mat.New(m, n)
	ms, err := timeIt(reps, func() error {
		for i := 0; i < iters; i++ {
			if err := mat.MulBTPackedInto(dst, a, p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(2*m*n*k) * iters / (ms * 1e6), nil
}

// measureBandwidthGBs times a streaming axpy (read x, read y, write y: 24
// bytes per element) over 32 MiB buffers — far beyond cache, so the rate is
// main-memory bandwidth as the vector kernels see it.
func measureBandwidthGBs(reps int) (float64, error) {
	const elems = 4 << 20
	const passes = 4
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, elems)
	y := make([]float64, elems)
	fillRand(x, rng)
	fillRand(y, rng)
	ms, err := timeIt(reps, func() error {
		for i := 0; i < passes; i++ {
			if err := mat.AxpyVec(0.5, x, y); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(24*elems) * passes / (ms * 1e6), nil
}

// measurePoint places one kernel configuration on the roofline: the packed
// product for an AE-Cloud-shaped layer (batch 8 × 672 against the 336×672
// first codec), measured under the currently active dispatch level with
// panels pre-packed.
func measurePoint(name string, peak, bw float64, reps int) (RooflinePoint, error) {
	const m, k, n, iters = 8, 672, 336, 50
	rng := rand.New(rand.NewSource(43))
	a := mat.New(m, k)
	b := mat.New(n, k)
	fillRand(a.Data, rng)
	fillRand(b.Data, rng)
	p := mat.Pack(b)
	dst := mat.New(m, n)
	ms, err := timeIt(reps, func() error {
		for i := 0; i < iters; i++ {
			if err := mat.MulBTPackedInto(dst, a, p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return RooflinePoint{}, err
	}
	flops := int64(2 * m * n * k)
	bytes := int64(m*k*8+m*n*8) + int64(p.Bytes())
	return placePoint(name, fmt.Sprintf("%d×%d · (%d×%d)ᵀ", m, k, n, k), flops, bytes, ms/iters, peak, bw), nil
}

// placePoint builds the roofline point of a kernel that does flops and moves
// bytes in perCallMs under the active dispatch level.
func placePoint(name, shape string, flops, bytes int64, perCallMs, peak, bw float64) RooflinePoint {
	gflops := float64(flops) / (perCallMs * 1e6)
	intensity := float64(flops) / float64(bytes)
	ceiling := math.Min(peak, intensity*bw)
	bound := "compute"
	if intensity*bw < peak {
		bound = "bandwidth"
	}
	return RooflinePoint{
		Name:          name,
		Kernel:        mat.KernelName(),
		Shape:         shape,
		Flops:         flops,
		MovedBytes:    bytes,
		Ms:            perCallMs,
		GFlops:        gflops,
		Intensity:     intensity,
		CeilingGFlops: ceiling,
		Bound:         bound,
		Efficiency:    gflops / ceiling,
	}
}

// measureLSTMStep places one single-window step of the fast cloud tier's
// BiLSTM encoder (I = 18, H = 24, both directions, batch 1) on the roofline
// under the active dispatch level and splits its time into the products,
// the frame copies and — what remains of the step — the activations. The
// point's flops are the products'; its bytes are the packed weights plus
// each direction's inputs and projections.
func measureLSTMStep(peak, bw float64, reps int) (RooflinePoint, error) {
	const in, hidden, iters = 18, 24, 4000
	rng := rand.New(rand.NewSource(48))
	bi := rnn.NewBiLSTM(in, hidden, rng)
	dirs := [2]*rnn.LSTM{bi.Fwd, bi.Bwd}
	var st [2]rnn.StepState
	frame := make([]float64, in)
	fillRand(frame, rng)
	x := mat.New(1, in)
	step := func() error {
		for d, l := range dirs {
			copy(x.Data, frame)
			if err := l.StepBatch(&st[d], x); err != nil {
				return err
			}
		}
		return nil
	}
	for d := range st {
		st[d].Reset(1, hidden)
	}
	if err := step(); err != nil { // pack the panels at this level's width
		return RooflinePoint{}, err
	}
	stepMs, err := timeIt(reps, func() error {
		for i := 0; i < iters; i++ {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return RooflinePoint{}, err
	}

	var wx, wh [2]*mat.Packed
	bytes := int64(0)
	for d, l := range dirs {
		wx[d], wh[d] = mat.Pack(l.Wx), mat.Pack(l.Wh)
		bytes += int64(wx[d].Bytes()+wh[d].Bytes()) + int64(in+hidden+2*4*hidden)*8
	}
	z, zh := mat.New(1, 4*hidden), mat.New(1, 4*hidden)
	h := st[0].H.Clone()
	productsMs, err := timeIt(reps, func() error {
		for i := 0; i < iters; i++ {
			for d := range dirs {
				if err := mat.MulBTPackedInto(z, x, wx[d]); err != nil {
					return err
				}
				if err := mat.MulBTPackedInto(zh, h, wh[d]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return RooflinePoint{}, err
	}
	copiesMs, err := timeIt(reps, func() error {
		for i := 0; i < iters; i++ {
			for range dirs {
				copy(x.Data, frame)
			}
		}
		return nil
	})
	if err != nil {
		return RooflinePoint{}, err
	}

	perStep := func(ms float64) float64 { return ms * 1e3 / iters }
	split := &StepSplit{
		StepUs:     perStep(stepMs),
		ProductsUs: perStep(productsMs),
		CopiesUs:   perStep(copiesMs),
	}
	split.ActivationsUs = split.StepUs - split.ProductsUs - split.CopiesUs
	split.ActivationsShare = split.ActivationsUs / split.StepUs
	flops := int64(len(dirs)) * 2 * int64(4*hidden) * int64(in+hidden)
	shape := fmt.Sprintf("BiLSTM step, both directions, batch 1: 1×%d · (%d×%d)ᵀ + 1×%d · (%d×%d)ᵀ each",
		in, 4*hidden, in, hidden, 4*hidden, hidden)
	pt := placePoint("lstm-step-"+mat.KernelName(), shape, flops, bytes, stepMs/iters, peak, bw)
	pt.Split = split
	return pt, nil
}

// benchTrainKernels measures the CI-gated AVX2-over-SSE2 speedup on the
// same batched AE-Cloud training epoch -bench-json tracks, with the batched
// engine pinned to each dispatch level in turn.
func benchTrainKernels(reps, weeks int) (BenchResult, error) {
	const dim = 672
	const batch = 32
	data := benchWeeks(weeks, dim, rand.New(rand.NewSource(44)))
	epoch := func() error {
		m, err := autoencoder.New(autoencoder.TierCloud, dim, rand.New(rand.NewSource(45)))
		if err != nil {
			return err
		}
		cfg := autoencoder.DefaultTrainConfig()
		cfg.Epochs = 1
		cfg.BatchSize = batch
		_, err = m.Fit(data, cfg, rand.New(rand.NewSource(46)))
		return err
	}
	var sse2Ms, avx2Ms float64
	if err := withKernelRestore("sse2", func() (err error) {
		sse2Ms, err = timeIt(reps, epoch)
		return
	}); err != nil {
		return BenchResult{}, err
	}
	if err := withKernelRestore("avx2", func() (err error) {
		avx2Ms, err = timeIt(reps, epoch)
		return
	}); err != nil {
		return BenchResult{}, err
	}
	return BenchResult{
		Name:         "autoencoder-train-epoch",
		Detail:       fmt.Sprintf("AE-Cloud %d-wide, %d weeks, 1 epoch, batch %d, SSE2 vs AVX2 dispatch", dim, weeks, batch),
		BatchSize:    batch,
		Baseline:     "sse2",
		Variant:      "avx2",
		SequentialMs: sse2Ms,
		BatchedMs:    avx2Ms,
		Speedup:      sse2Ms / avx2Ms,
	}, nil
}

// benchPackedReuse measures what the panel cache buys steady-state
// inference: the same AE-Cloud InferBatch at serving batch size, with the
// caches invalidated before every call (the repack-per-call baseline a
// cache-less engine would pay) vs left warm.
func benchPackedReuse(reps, iters int) (BenchResult, error) {
	const dim = 672
	const batch = 8
	rng := rand.New(rand.NewSource(47))
	m, err := autoencoder.New(autoencoder.TierCloud, dim, rng)
	if err != nil {
		return BenchResult{}, err
	}
	params := m.Net.Params()
	invalidate := func() {
		for _, p := range params {
			if p.Cache != nil {
				p.Cache.Invalidate()
			}
		}
	}
	x := mat.New(batch, dim)
	fillRand(x.Data, rng)
	var ws nn.BatchScratch
	if _, err := m.Net.InferBatch(&ws, x); err != nil {
		return BenchResult{}, err
	}
	repackMs, err := timeIt(reps, func() error {
		for i := 0; i < iters; i++ {
			invalidate()
			if _, err := m.Net.InferBatch(&ws, x); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return BenchResult{}, err
	}
	invalidate()
	if _, err := m.Net.InferBatch(&ws, x); err != nil {
		return BenchResult{}, err
	}
	cachedMs, err := timeIt(reps, func() error {
		for i := 0; i < iters; i++ {
			if _, err := m.Net.InferBatch(&ws, x); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return BenchResult{}, err
	}
	return BenchResult{
		Name:         "inferbatch-packed-reuse",
		Detail:       fmt.Sprintf("AE-Cloud %d-wide InferBatch, batch %d, %d calls: repack every call vs warm panel cache", dim, batch, iters),
		BatchSize:    batch,
		Baseline:     "repack-per-call",
		Variant:      "cached-panels",
		SequentialMs: repackMs,
		BatchedMs:    cachedMs,
		Speedup:      repackMs / cachedMs,
	}, nil
}

// runRoofline produces the roofline snapshot and writes it to path ("-" for
// stdout). fast shrinks the workloads for CI smoke runs.
func runRoofline(path string, fast bool) error {
	reps, weeks, reuseIters := 3, 104, 200
	if fast {
		reps, weeks, reuseIters = 2, 32, 60
	}
	kernels := mat.AvailableKernels()
	avx2 := false
	for _, k := range kernels {
		if k == "avx2" {
			avx2 = true
		}
	}
	snap := RooflineSnapshot{
		Schema:        rooflineSchema,
		GoVersion:     runtime.Version(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Reps:          reps,
		Kernels:       kernels,
		AVX2Available: avx2,
	}
	fmt.Fprintf(os.Stderr, "hecbench: measuring roofline (kernel=%s, fast=%v, reps=%d)...\n", mat.KernelName(), fast, reps)

	peak, err := measurePeakGFlops(reps)
	if err != nil {
		return fmt.Errorf("roofline: peak: %w", err)
	}
	bw, err := measureBandwidthGBs(reps)
	if err != nil {
		return fmt.Errorf("roofline: bandwidth: %w", err)
	}
	snap.PeakGFlops = peak
	snap.BandwidthGBs = bw
	snap.RidgeIntensity = peak / bw
	fmt.Fprintf(os.Stderr, "  ceilings: %.2f GFLOP/s compute, %.2f GB/s bandwidth, ridge %.2f flops/byte\n", peak, bw, peak/bw)

	// Two points per exact dispatch level: the dense product and one
	// single-window recurrent step.
	for _, k := range kernels {
		if k == "neon" {
			continue // opt-in, bounded-ULP; not part of the dispatch default
		}
		err := withKernelRestore(k, func() error {
			pt, err := measurePoint("mulbt-f64-"+k, peak, bw, reps)
			if err != nil {
				return err
			}
			step, err := measureLSTMStep(peak, bw, reps)
			if err != nil {
				return err
			}
			snap.Points = append(snap.Points, pt, step)
			return nil
		})
		if err != nil {
			return fmt.Errorf("roofline: %s: %w", k, err)
		}
	}
	for _, pt := range snap.Points {
		fmt.Fprintf(os.Stderr, "  %-18s %7.2f GFLOP/s  %5.2f flops/byte  %-9s bound  %4.0f%% of ceiling\n",
			pt.Name, pt.GFlops, pt.Intensity, pt.Bound, pt.Efficiency*100)
		if s := pt.Split; s != nil {
			fmt.Fprintf(os.Stderr, "  %-18s %.2f µs/step: products %.2f, activations %.2f (%.0f%%), copies %.2f\n",
				"", s.StepUs, s.ProductsUs, s.ActivationsUs, s.ActivationsShare*100, s.CopiesUs)
		}
	}

	if avx2 {
		res, err := benchTrainKernels(reps, weeks)
		if err != nil {
			return fmt.Errorf("roofline: train kernels: %w", err)
		}
		fmt.Fprintf(os.Stderr, "  %-24s sse2 %8.1fms  avx2 %8.1fms  %5.2fx\n", res.Name, res.SequentialMs, res.BatchedMs, res.Speedup)
		snap.Results = append(snap.Results, res)
	} else {
		fmt.Fprintln(os.Stderr, "  avx2 unavailable; skipping dispatch-level speedup")
	}
	res, err := benchPackedReuse(reps, reuseIters)
	if err != nil {
		return fmt.Errorf("roofline: packed reuse: %w", err)
	}
	fmt.Fprintf(os.Stderr, "  %-24s repack %6.1fms  cached %6.1fms  %5.2fx\n", res.Name, res.SequentialMs, res.BatchedMs, res.Speedup)
	snap.Results = append(snap.Results, res)

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
		return fmt.Errorf("roofline: %w", err)
	}
	fmt.Fprintf(os.Stderr, "hecbench: wrote %s\n", path)
	return nil
}
