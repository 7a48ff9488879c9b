package hec

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/anomaly"
)

// manySamples builds a deterministic spread of normal, subtle and extreme
// windows large enough that a parallel Precompute actually shards work.
func manySamples(n int) []Sample {
	rng := rand.New(rand.NewSource(42))
	samples := make([]Sample, n)
	for i := range samples {
		switch i % 3 {
		case 0:
			samples[i] = sampleWith(rng.Float64()*0.05, false)
		case 1:
			samples[i] = sampleWith(2.5+rng.Float64(), true)
		default:
			samples[i] = sampleWith(0.3+rng.Float64()*0.2, true)
		}
	}
	return samples
}

// TestPrecomputeParallelMatchesSequential is the determinism contract of
// the parallel evaluation engine: for any worker count, PrecomputeWith
// must produce outcomes, contexts and RTTs identical to the sequential
// path. Run under -race this also proves the sharding is data-race free.
func TestPrecomputeParallelMatchesSequential(t *testing.T) {
	dep := testDeployment(t)
	samples := manySamples(300)

	seq, err := PrecomputeWith(context.Background(), dep, constExtractor{}, samples, PrecomputeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16, 0} {
		par, err := PrecomputeWith(context.Background(), dep, constExtractor{}, samples, PrecomputeOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Outcomes, par.Outcomes) {
			t.Fatalf("workers=%d: outcomes diverge from sequential", workers)
		}
		if !reflect.DeepEqual(seq.Contexts, par.Contexts) {
			t.Fatalf("workers=%d: contexts diverge from sequential", workers)
		}
		if seq.RTTs != par.RTTs || seq.PolicyOverheadMs != par.PolicyOverheadMs {
			t.Fatalf("workers=%d: cached topology values diverge", workers)
		}
	}
}

// errDetector fails on one specific frame value, so tests can inject a
// failure at a chosen sample index.
type errDetector struct {
	fakeDetector
	failAt float64
}

func (e *errDetector) Detect(frames [][]float64) (anomaly.Verdict, error) {
	if frames[0][0] == e.failAt {
		return anomaly.Verdict{}, fmt.Errorf("injected failure")
	}
	return e.fakeDetector.Detect(frames)
}

func TestPrecomputeParallelPropagatesErrors(t *testing.T) {
	det := &errDetector{fakeDetector: fakeDetector{name: "flaky", skill: 1, params: 1, flops: 1}, failAt: 7}
	dep, err := NewDeployment(DefaultTopology(), [NumLayers]anomaly.Detector{det, det, det}, false)
	if err != nil {
		t.Fatal(err)
	}
	samples := manySamples(64)
	samples[40] = sampleWith(7, true)
	for _, workers := range []int{1, 4} {
		_, err := PrecomputeWith(context.Background(), dep, nil, samples, PrecomputeOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: injected failure not propagated", workers)
		}
	}
}
