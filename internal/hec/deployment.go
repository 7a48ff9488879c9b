package hec

import (
	"context"
	"fmt"

	"repro/internal/anomaly"
	"repro/internal/features"
	"repro/internal/parallel"
)

// Sample is one detection task: a window of frames plus its ground truth.
type Sample struct {
	// Frames is the T×D window (univariate data uses D = 1).
	Frames [][]float64
	// Label is true for anomalous windows.
	Label bool
}

// Deployment binds one trained detector to each HEC layer over a topology —
// the system state after the paper's model-construction phase.
type Deployment struct {
	Topology  Topology
	Detectors [NumLayers]anomaly.Detector
	// Recurrent selects the LSTM throughput curve for execution times
	// (true for the multivariate seq2seq suite).
	Recurrent bool
	// PayloadKB is the uplink payload size per offloaded window.
	PayloadKB float64
	// PolicyOverheadMs is the cost of running context extraction plus the
	// policy network on the IoT device, charged to policy-driven schemes.
	PolicyOverheadMs float64
}

// NewDeployment validates and builds a deployment.
func NewDeployment(top Topology, detectors [NumLayers]anomaly.Detector, recurrent bool) (*Deployment, error) {
	for l, d := range detectors {
		if d == nil {
			return nil, fmt.Errorf("hec: no detector for layer %v", Layer(l))
		}
	}
	return &Deployment{Topology: top, Detectors: detectors, Recurrent: recurrent}, nil
}

// ExecMs returns the execution time of the detector at layer for a T-frame
// window.
func (d *Deployment) ExecMs(layer Layer, T int) (float64, error) {
	return d.Topology.ExecTimeMs(layer, d.Detectors[layer], T, d.Recurrent)
}

// RTTMs returns the network round trip from the IoT device to layer.
func (d *Deployment) RTTMs(layer Layer) (float64, error) {
	return d.Topology.RTTMs(layer, d.PayloadKB)
}

// Outcome is a precomputed per-layer detection result for one sample.
type Outcome struct {
	Verdict anomaly.Verdict
	// ExecMs is the execution time at the layer (no network).
	ExecMs float64
	// E2EMs is the end-to-end delay when the sample is sent directly to
	// the layer: RTT + ExecMs.
	E2EMs float64
}

// Precomputed caches every (sample, layer) detection outcome plus each
// sample's policy context. Detection is deterministic, so policy training
// and the Table II scheme runs replay these outcomes instead of re-running
// models — the same trick the paper's authors use when training the policy
// network offline from logged detections.
type Precomputed struct {
	Samples  []Sample
	Outcomes [][NumLayers]Outcome
	Contexts [][]float64
	// RTTs caches the per-layer network round trips.
	RTTs [NumLayers]float64
	// PolicyOverheadMs mirrors Deployment.PolicyOverheadMs.
	PolicyOverheadMs float64
}

// DefaultPrecomputeBatch is how many samples Precompute stacks into one
// vectorised DetectBatch call by default: large enough to amortise each
// model's weight matrices across the batch, small enough that chunks still
// shard evenly across workers.
const DefaultPrecomputeBatch = 32

// PrecomputeOptions tunes Precompute's evaluation engine.
type PrecomputeOptions struct {
	// Workers is the number of goroutines detecting samples concurrently.
	// Values < 1 mean one worker per available CPU (GOMAXPROCS); 1 forces
	// the sequential path.
	Workers int
	// BatchSize is how many samples are judged per vectorised detection
	// call for detectors implementing anomaly.BatchDetector. Values < 1
	// pick DefaultPrecomputeBatch; 1 degrades to per-sample granularity.
	// Batched and per-sample detection produce identical outcomes (the
	// repository's batch engines are bit-identical to their per-sample
	// paths), so this is purely a throughput knob.
	BatchSize int
}

// Precompute runs every detector on every sample and extracts contexts,
// batching samples through the vectorised detection engine and fanning the
// batches out across one worker per available CPU. ext may be nil when no
// adaptive scheme will be used. Use PrecomputeWith to control the worker
// count and batch size.
//
// Cancelling ctx stops the engine between detection batches (and between
// layers within a batch): the call returns promptly with ctx.Err() and no
// partial result.
func Precompute(ctx context.Context, dep *Deployment, ext features.Extractor, samples []Sample) (*Precomputed, error) {
	return PrecomputeWith(ctx, dep, ext, samples, PrecomputeOptions{})
}

// PrecomputeWith is Precompute with explicit options.
//
// Detection is deterministic per sample and inference never mutates model
// state, so samples shard safely by index: a worker owns a contiguous chunk
// of samples and writes only that chunk's Outcomes / Contexts, and the
// result is identical to the sequential path (Workers: 1) for any worker
// count and any batch size.
func PrecomputeWith(ctx context.Context, dep *Deployment, ext features.Extractor, samples []Sample, opt PrecomputeOptions) (*Precomputed, error) {
	pc := &Precomputed{
		Samples:          samples,
		Outcomes:         make([][NumLayers]Outcome, len(samples)),
		PolicyOverheadMs: dep.PolicyOverheadMs,
	}
	for l := Layer(0); l < NumLayers; l++ {
		rtt, err := dep.RTTMs(l)
		if err != nil {
			return nil, err
		}
		pc.RTTs[l] = rtt
	}
	if ext != nil {
		pc.Contexts = make([][]float64, len(samples))
	}
	bs := opt.BatchSize
	if bs < 1 {
		bs = DefaultPrecomputeBatch
	}
	// Never let chunking starve the worker pool: on hosts with more workers
	// than chunks, shrink the batch until every worker has one. Outcomes are
	// identical at any batch size, so this only trades a little per-chunk
	// amortisation for full core utilisation.
	if w := parallel.Workers(opt.Workers, len(samples)); w > 1 {
		if maxBS := (len(samples) + w - 1) / w; bs > maxBS {
			bs = maxBS
		}
	}
	// When the extractor is the IoT detector itself (the multivariate IoT
	// model), the IoT pass hands out each window's context on its way to the
	// verdict, and no window is encoded twice.
	hd, handoff := anomaly.Handoff(dep.Detectors[LayerIoT], ext)
	chunks := (len(samples) + bs - 1) / bs
	err := parallel.ForEachCtx(ctx, opt.Workers, chunks, func(ci int) error {
		lo := ci * bs
		hi := lo + bs
		if hi > len(samples) {
			hi = len(samples)
		}
		windows := make([][][]float64, hi-lo)
		for k := range windows {
			windows[k] = samples[lo+k].Frames
		}
		for l := Layer(0); l < NumLayers; l++ {
			// Also honour cancellation between the three per-layer passes of a
			// chunk, so a slow detector does not stretch the shutdown latency
			// to a whole chunk's worth of work.
			if err := ctx.Err(); err != nil {
				return err
			}
			var vs []anomaly.Verdict
			var err error
			if l == LayerIoT && handoff {
				vs, err = hd.DetectKept(windows, func(k int, z []float64) (bool, error) {
					pc.Contexts[lo+k] = append([]float64(nil), z...)
					return true, nil
				})
			} else {
				vs, err = anomaly.DetectAll(dep.Detectors[l], windows)
			}
			if err != nil {
				return fmt.Errorf("hec: precompute samples %d-%d layer %v: %w", lo, hi-1, l, err)
			}
			for k, v := range vs {
				exec, err := dep.ExecMs(l, len(windows[k]))
				if err != nil {
					return err
				}
				pc.Outcomes[lo+k][l] = Outcome{Verdict: v, ExecMs: exec, E2EMs: pc.RTTs[l] + exec}
			}
		}
		if ext != nil && !handoff {
			for k := range windows {
				z, err := ext.Context(windows[k])
				if err != nil {
					return fmt.Errorf("hec: precompute context %d: %w", lo+k, err)
				}
				pc.Contexts[lo+k] = z
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pc, nil
}
