package cluster

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/autoencoder"
	"repro/internal/seq2seq"
)

// trainTinyAE fits a small real autoencoder so snapshots carry a genuine
// scorer and threshold.
func trainTinyAE(t *testing.T, tier autoencoder.Tier) *autoencoder.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	const dim = 672
	m, err := autoencoder.New(tier, dim, rng)
	if err != nil {
		t.Fatal(err)
	}
	train := make([][]float64, 4)
	for i := range train {
		train[i] = make([]float64, dim)
		for j := range train[i] {
			train[i][j] = rng.NormFloat64() * 0.1
		}
	}
	cfg := autoencoder.DefaultTrainConfig()
	cfg.Epochs = 1
	if _, err := m.Fit(train, cfg, rng); err != nil {
		t.Fatal(err)
	}
	return m
}

func uniWindow(rng *rand.Rand, dim int) [][]float64 {
	w := make([][]float64, dim)
	for i := range w {
		w[i] = []float64{rng.NormFloat64()}
	}
	return w
}

func TestAutoencoderArtifactRoundTrip(t *testing.T) {
	m := trainTinyAE(t, autoencoder.TierIoT)
	m.Quantize()

	snap, err := SnapshotDetector(m, "IoT", true)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "iot.model")
	if err := SaveModel(path, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	restored, recurrent, err := RestoreDetector(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if recurrent {
		t.Fatal("autoencoder restored as recurrent")
	}
	if restored.Name() != m.Name() || restored.NumParams() != m.NumParams() {
		t.Fatalf("restored %s (%d params), want %s (%d)", restored.Name(), restored.NumParams(), m.Name(), m.NumParams())
	}

	// The restored detector must agree bit-for-bit: same weights, same
	// scorer, same threshold → identical scores and verdicts.
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 5; i++ {
		w := uniWindow(rng, 672)
		want, err := m.Detect(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Detect(w)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("window %d: restored verdict %+v, want %+v", i, got, want)
		}
	}
}

func TestSeq2SeqArtifactRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, err := seq2seq.New(seq2seq.TierEdge, seq2seq.DefaultSizing(), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Fit only the scorer (full LSTM training is exercised elsewhere); the
	// untrained weights still make Detect deterministic.
	errsVecs := make([][]float64, 40)
	for i := range errsVecs {
		errsVecs[i] = make([]float64, 18)
		for j := range errsVecs[i] {
			errsVecs[i][j] = rng.NormFloat64() * 0.05
		}
	}
	m.Scorer, err = anomaly.FitScorer(errsVecs, 1e-4)
	if err != nil {
		t.Fatal(err)
	}

	snap, err := SnapshotDetector(m, "Edge", false)
	if err != nil {
		t.Fatal(err)
	}
	restored, recurrent, err := RestoreDetector(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !recurrent {
		t.Fatal("seq2seq restored as non-recurrent")
	}
	window := make([][]float64, 16)
	for i := range window {
		window[i] = make([]float64, 18)
		for j := range window[i] {
			window[i][j] = rng.NormFloat64()
		}
	}
	want, err := m.Detect(window)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Detect(window)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("restored verdict %+v, want %+v", got, want)
	}
}

func TestSnapshotRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	unfitted, err := autoencoder.New(autoencoder.TierIoT, 672, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SnapshotDetector(unfitted, "IoT", false); err == nil {
		t.Fatal("snapshotting an unfitted model must fail")
	}
	m := trainTinyAE(t, autoencoder.TierIoT)
	if _, err := SnapshotDetector(m, "Basement", false); err == nil {
		t.Fatal("unknown tier must be rejected")
	}
	if _, err := SnapshotDetector(stubDetector{}, "IoT", false); err == nil {
		t.Fatal("unknown detector type must be rejected")
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	if _, _, err := RestoreDetector(nil); err == nil {
		t.Fatal("nil snapshot must be rejected")
	}
	m := trainTinyAE(t, autoencoder.TierIoT)
	snap, err := SnapshotDetector(m, "IoT", false)
	if err != nil {
		t.Fatal(err)
	}
	bad := *snap
	bad.Kind = "decision-tree"
	if _, _, err := RestoreDetector(&bad); err == nil {
		t.Fatal("unknown kind must be rejected")
	}
	bad = *snap
	bad.InputDim = 224 // different architecture → shape mismatch, not silence
	if _, _, err := RestoreDetector(&bad); err == nil {
		t.Fatal("shape mismatch must be rejected")
	}
	if _, err := LoadModel(filepath.Join(t.TempDir(), "missing.model")); err == nil {
		t.Fatal("loading a missing file must fail")
	}
}

// TestLoadModelRejectsDamagedFiles: a truncated artifact and a file that
// was never one must each fail with an error, not a panic or a half-built
// snapshot.
func TestLoadModelRejectsDamagedFiles(t *testing.T) {
	snap, err := SnapshotDetector(trainTinyAE(t, autoencoder.TierIoT), "IoT", false)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "iot.hecm")
	if err := SaveModel(good, snap); err != nil {
		t.Fatal(err)
	}
	payload, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string][]byte{
		"truncated.hecm": payload[:len(payload)/2],
		"foreign.hecm":   []byte("{\"kind\": \"autoencoder\", \"tier\": \"IoT\"}\n"),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := LoadModel(path); err == nil {
			t.Errorf("%s loaded as %+v, want an error", name, got)
		}
	}
}
