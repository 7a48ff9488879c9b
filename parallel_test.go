package repro

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/hec"
)

// assertParallelPrecomputeMatches builds precomputed sets sequentially and
// with several worker counts over the system's real detectors and test
// split, and requires them to be identical. Run under -race this doubles as
// the data-race proof for the parallel evaluation engine on production
// deployments.
func assertParallelPrecomputeMatches(t *testing.T, sys *System) {
	t.Helper()
	seq, err := hec.PrecomputeWith(context.Background(), sys.Deployment, sys.Extractor, sys.TestSamples, hec.PrecomputeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 0} {
		par, err := hec.PrecomputeWith(context.Background(), sys.Deployment, sys.Extractor, sys.TestSamples, hec.PrecomputeOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Outcomes, par.Outcomes) {
			t.Fatalf("workers=%d: %v outcomes diverge from sequential", workers, sys.Kind)
		}
		if !reflect.DeepEqual(seq.Contexts, par.Contexts) {
			t.Fatalf("workers=%d: %v contexts diverge from sequential", workers, sys.Kind)
		}
		if seq.RTTs != par.RTTs {
			t.Fatalf("workers=%d: %v RTTs diverge from sequential", workers, sys.Kind)
		}
	}
}

// TestPrecomputeParallelMatchesSequentialUnivariate asserts parallel
// Precompute is byte-identical to sequential on the trained autoencoder
// deployment.
func TestPrecomputeParallelMatchesSequentialUnivariate(t *testing.T) {
	// Detector quality is irrelevant to determinism.
	sys, err := Build(Univariate, WithFast(), WithUnivariate(func(o *UnivariateOptions) { o.Train.Epochs = 4 }))
	if err != nil {
		t.Fatal(err)
	}
	assertParallelPrecomputeMatches(t, sys)
}

// TestPrecomputeParallelMatchesSequentialMultivariate asserts the same for
// the trained seq2seq deployment, whose context extractor runs the IoT
// encoder — the heavier concurrent workload.
func TestPrecomputeParallelMatchesSequentialMultivariate(t *testing.T) {
	if testing.Short() {
		t.Skip("LSTM training is slow; skipped with -short")
	}
	sys, err := Build(Multivariate, WithFast(), WithMultivariate(func(o *MultivariateOptions) {
		o.Train.Epochs = 1
		o.Policy.Epochs = 2
	}))
	if err != nil {
		t.Fatal(err)
	}
	assertParallelPrecomputeMatches(t, sys)
}

// TestBuildUnivariateDeterministicAcrossRuns guards the builders' parallel
// tier training: two identically seeded builds must produce identical
// precomputed test outcomes even though the three detectors trained on
// separate goroutines.
func TestBuildUnivariateDeterministicAcrossRuns(t *testing.T) {
	short := WithUnivariate(func(o *UnivariateOptions) { o.Train.Epochs = 4 })
	a, err := Build(Univariate, WithFast(), short)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(Univariate, WithFast(), short)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Precomputed().Outcomes, b.Precomputed().Outcomes) {
		t.Fatal("identically seeded builds diverge")
	}
	rowsA, err := a.SchemeRows()
	if err != nil {
		t.Fatal(err)
	}
	rowsB, err := b.SchemeRows()
	if err != nil {
		t.Fatal(err)
	}
	for i := range rowsA {
		if rowsA[i].Scheme != rowsB[i].Scheme || rowsA[i].F1 != rowsB[i].F1 ||
			rowsA[i].MeanDelayMs != rowsB[i].MeanDelayMs || rowsA[i].RewardSum != rowsB[i].RewardSum {
			t.Fatalf("scheme row %d diverges between identically seeded builds", i)
		}
	}
}
