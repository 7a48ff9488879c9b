package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"

	"repro/internal/anomaly"
	"repro/internal/autoencoder"
	"repro/internal/cluster"
	"repro/internal/nn"
	"repro/internal/transport"
)

// distSchema identifies the model-distribution snapshot layout.
const distSchema = "hec-dist/2"

// DistSnapshot is the machine-readable model-distribution comparison
// (BENCH_10.json): full fetches of the canonical binary tensor payload
// against one-tensor deltas, measured on a real loopback server with the
// int8-quantized AE-Cloud the fleet ships.
type DistSnapshot struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"go_maxprocs"`
	// Model geometry, recorded so a reader can interpret the byte counts
	// without chasing the harness source.
	ModelKind  string `json:"model_kind"`
	ModelTier  string `json:"model_tier"`
	InputDim   int    `json:"input_dim"`
	Params     int    `json:"params"`
	Tensors    int    `json:"tensors"`
	Quantized  bool   `json:"quantized"`
	ChunkBytes int    `json:"chunk_bytes"`

	// Bytes on the wire. FullBinaryBytes is the canonical tensor layout of
	// the whole model; DeltaBinaryBytes a one-tensor delta (header + the
	// single changed tensor) against the previous version.
	FullBinaryBytes  int `json:"full_binary_bytes"`
	DeltaBinaryBytes int `json:"delta_binary_bytes"`
	DeltaTensors     int `json:"delta_tensors"`

	// Loopback latencies (best of several reps): the chunked fetch, and a
	// version-probe + delta refresh.
	ChunkedFetchMs  float64 `json:"chunked_fetch_ms"`
	DeltaRefreshMs  float64 `json:"delta_refresh_ms"`
	ProbeUpToDateMs float64 `json:"probe_up_to_date_ms"`

	// DeltaReduction is the full binary fetch over the one-tensor delta —
	// gated >= 10 in CI: rolling one tensor must not cost a model.
	DeltaReduction float64 `json:"delta_reduction"`
}

// distModel builds the detector the distribution bench ships: an AE-Cloud
// int8-quantized the way PR 8's inference tier quantizes fleet models, with
// a scorer fitted on synthetic reconstruction errors (the bench measures
// transfer, not detection, but snapshots require a fitted model).
func distModel(inputDim int) (*autoencoder.Model, error) {
	rng := rand.New(rand.NewSource(10))
	m, err := autoencoder.New(autoencoder.TierCloud, inputDim, rng)
	if err != nil {
		return nil, err
	}
	errs := make([][]float64, 64)
	for i := range errs {
		errs[i] = []float64{0.05 + 0.01*float64(i)}
	}
	scorer, err := anomaly.FitScorer(errs, 1e-6)
	if err != nil {
		return nil, err
	}
	m.Scorer = scorer
	m.QuantizeMode(nn.QuantInt8)
	return m, nil
}

// runDistBench measures the model-distribution path end to end and writes
// the snapshot ('-' = stdout). Byte counts are deterministic (fixed seed,
// canonical layout); latencies are loopback best-of-N.
func runDistBench(path string, fast bool) error {
	reps := 10
	if fast {
		reps = 5
	}
	m, err := distModel(672)
	if err != nil {
		return fmt.Errorf("dist bench: %w", err)
	}
	snap, err := cluster.SnapshotDetector(m, "Cloud", true)
	if err != nil {
		return fmt.Errorf("dist bench: %w", err)
	}

	// Byte counts: the distribution path ships the canonical tensor
	// layout, chunked.
	payload, err := transport.EncodeModel(snap, nil)
	if err != nil {
		return fmt.Errorf("dist bench: %w", err)
	}
	baseMan, err := transport.ManifestOf(snap)
	if err != nil {
		return fmt.Errorf("dist bench: %w", err)
	}

	// The rolled version: one bias nudged, as a recalibration would. The
	// delta is the header plus that single tensor.
	next, err := transport.DecodeModel(payload)
	if err != nil {
		return fmt.Errorf("dist bench: %w", err)
	}
	last := len(next.Weights.Values) - 1
	for i := range next.Weights.Values[last] {
		next.Weights.Values[last][i] += 0.5
	}
	nextMan, err := transport.ManifestOf(next)
	if err != nil {
		return fmt.Errorf("dist bench: %w", err)
	}
	want := nextMan.Diff(baseMan)
	delta, err := transport.EncodeModel(next, want)
	if err != nil {
		return fmt.Errorf("dist bench: %w", err)
	}

	out := DistSnapshot{
		Schema:     distSchema,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		ModelKind:  snap.Kind, ModelTier: snap.Tier,
		InputDim: snap.InputDim, Params: m.NumParams(),
		Tensors: len(snap.Weights.Values), Quantized: snap.Quantized,
		ChunkBytes:       transport.DefaultModelChunkBytes,
		FullBinaryBytes:  len(payload),
		DeltaBinaryBytes: len(delta),
		DeltaTensors:     len(want),
	}
	out.DeltaReduction = float64(out.FullBinaryBytes) / float64(out.DeltaBinaryBytes)

	// Loopback latencies against a real server.
	srv, err := transport.ServeWith("127.0.0.1:0", m, transport.ServerOptions{Model: snap})
	if err != nil {
		return fmt.Errorf("dist bench: %w", err)
	}
	defer srv.Close()
	cli, err := transport.Dial(srv.Addr(), 0)
	if err != nil {
		return fmt.Errorf("dist bench: %w", err)
	}
	defer cli.Close()
	ctx := context.Background()

	fmt.Fprintf(os.Stderr, "hecbench: model distribution on %s (%d params, int8), %d reps per path...\n",
		m.Name(), m.NumParams(), reps)
	if out.ChunkedFetchMs, err = timeIt(reps, func() error {
		_, _, err := transport.RefreshModel(ctx, cli, nil)
		return err
	}); err != nil {
		return fmt.Errorf("dist bench: chunked fetch: %w", err)
	}
	if out.ProbeUpToDateMs, err = timeIt(reps, func() error {
		_, upToDate, err := transport.RefreshModel(ctx, cli, snap)
		if err == nil && !upToDate {
			return fmt.Errorf("steady-state refresh was not a version match")
		}
		return err
	}); err != nil {
		return fmt.Errorf("dist bench: probe: %w", err)
	}
	if err := srv.UpdateModel(m, nil, next); err != nil {
		return fmt.Errorf("dist bench: %w", err)
	}
	if out.DeltaRefreshMs, err = timeIt(reps, func() error {
		got, upToDate, err := transport.RefreshModel(ctx, cli, snap)
		if err != nil {
			return err
		}
		if upToDate || got == nil {
			return fmt.Errorf("delta refresh did not ship a model")
		}
		return nil
	}); err != nil {
		return fmt.Errorf("dist bench: delta refresh: %w", err)
	}

	fmt.Fprintf(os.Stderr, "  full: %d B  delta: %d B over %d tensor(s) (%.1fx vs full)\n",
		out.FullBinaryBytes, out.DeltaBinaryBytes, out.DeltaTensors, out.DeltaReduction)
	fmt.Fprintf(os.Stderr, "  latency: chunked %.2fms  delta %.2fms  probe %.3fms\n",
		out.ChunkedFetchMs, out.DeltaRefreshMs, out.ProbeUpToDateMs)

	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hecbench: wrote %s\n", path)
	return nil
}
