package hec

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/anomaly"
)

// slowDetector wraps a fake detector with a fixed per-call delay so a
// cancelled Precompute has something to be slow at.
type slowDetector struct {
	anomaly.Detector
	delay time.Duration
}

func (s *slowDetector) Detect(frames [][]float64) (anomaly.Verdict, error) {
	time.Sleep(s.delay)
	return s.Detector.Detect(frames)
}

// slowDeployment builds a deployment whose detectors each sleep per window.
func slowDeployment(t *testing.T, delay time.Duration) *Deployment {
	t.Helper()
	base := testDeployment(t)
	var slowed [NumLayers]anomaly.Detector
	for l, d := range base.Detectors {
		slowed[l] = &slowDetector{Detector: d, delay: delay}
	}
	dep, err := NewDeployment(base.Topology, slowed, false)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// TestPrecomputeCancelledMidway cancels while the engine is grinding
// through deliberately slow detectors: Precompute must return ctx's error
// promptly — within a few chunks' worth of work — instead of finishing the
// remaining samples.
func TestPrecomputeCancelledMidway(t *testing.T) {
	const perDetect = 2 * time.Millisecond
	dep := slowDeployment(t, perDetect)
	samples := manySamples(400) // sequential cost ≈ 400×3×2 ms = 2.4 s
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := PrecomputeWith(ctx, dep, constExtractor{}, samples, PrecomputeOptions{Workers: 4, BatchSize: 1})
	elapsed := time.Since(start)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancelled precompute returned after %v", elapsed)
	}
}

// TestPrecomputePreCancelled never runs a detector when the context is
// already done.
func TestPrecomputePreCancelled(t *testing.T) {
	dep := testDeployment(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Precompute(ctx, dep, nil, manySamples(12)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPrecomputeDeadline propagates DeadlineExceeded the same way.
func TestPrecomputeDeadline(t *testing.T) {
	dep := slowDeployment(t, time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := PrecomputeWith(ctx, dep, nil, manySamples(200), PrecomputeOptions{BatchSize: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
