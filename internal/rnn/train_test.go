package rnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// newTrainer builds a seq2seq model and the RMSProp recipe seq2seq.Fit
// trains it with; equal seeds give equal weights and dropout streams.
func newTrainer(t *testing.T, seed int64, cfg Config) (*Seq2Seq, nn.Optimizer) {
	t.Helper()
	m, err := NewSeq2Seq(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewRMSProp(2e-3)
	opt.WeightDecay = 1e-4
	opt.ClipNorm = 5
	return m, opt
}

// sameParams fails unless a and b hold bit-identical parameters.
func sameParams(t *testing.T, tag string, a, b *Seq2Seq) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j, v := range pa[i].Value.Data {
			if math.Float64bits(v) != math.Float64bits(pb[i].Value.Data[j]) {
				t.Fatalf("%s: param %s elem %d: %v vs %v", tag, pa[i].Name, j, v, pb[i].Value.Data[j])
			}
		}
	}
}

// TestTrainBatchMatchesScalarReference pins the lockstep trainer to the
// per-window scalar trainer it replaced: over several RMSProp steps, both
// encoders, with and without dropout, at several batch sizes and on a
// mixed-length minibatch, the returned losses and every parameter are
// bit-identical. The long minibatch is large enough for the kernels to fan
// rows out over the worker pool.
func TestTrainBatchMatchesScalarReference(t *testing.T) {
	batches := map[string][]int{ // window lengths per minibatch
		"b1":    {9},
		"b3":    {9, 9, 9},
		"b4":    {9, 9, 9, 9},
		"mixed": {6, 6, 9, 4, 4},
		"long":  {128, 128, 128, 128},
	}
	for _, bidi := range []bool{false, true} {
		for _, drop := range []float64{0, 0.3} {
			for name, lens := range batches {
				t.Run(fmt.Sprintf("bidirectional=%v/drop=%g/%s", bidi, drop, name), func(t *testing.T) {
					cfg := Config{InSize: 18, HiddenSize: 13, Bidirectional: bidi, DropRate: drop}
					got, gotOpt := newTrainer(t, 3, cfg)
					want, wantOpt := newTrainer(t, 3, cfg)
					data := rand.New(rand.NewSource(11))
					for step := 0; step < 3; step++ {
						batch := make([][][]float64, len(lens))
						for w, T := range lens {
							batch[w] = randSeq(data, T, cfg.InSize)
						}
						gl, err := got.TrainBatch(batch, gotOpt)
						if err != nil {
							t.Fatal(err)
						}
						wl, err := refTrainBatch(want, batch, wantOpt)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(gl) != math.Float64bits(wl) {
							t.Fatalf("step %d: loss %v, scalar reference %v", step, gl, wl)
						}
						sameParams(t, fmt.Sprintf("step %d", step), got, want)
					}
				})
			}
		}
	}
}

// TestTrainBatchRejectsBeforeTouchingGradients: a minibatch with a bad
// window fails without leaving gradients behind, so the next step lands
// exactly where a fresh model's does.
func TestTrainBatchRejectsBeforeTouchingGradients(t *testing.T) {
	cfg := Config{InSize: 3, HiddenSize: 4, DropRate: 0.3}
	data := rand.New(rand.NewSource(5))
	good := randSeq(data, 6, 3)
	ragged := randSeq(data, 6, 3)
	ragged[4] = ragged[4][:2]
	for _, bad := range [][][]float64{ragged, {}} {
		failed, failedOpt := newTrainer(t, 8, cfg)
		clean, cleanOpt := newTrainer(t, 8, cfg)
		if _, err := failed.TrainBatch([][][]float64{good, bad}, failedOpt); err == nil {
			t.Fatalf("batch with a %d-step bad window must error", len(bad))
		}
		for _, p := range failed.Params() {
			for _, g := range p.Grad.Data {
				if g != 0 {
					t.Fatalf("rejected batch left a gradient in %s", p.Name)
				}
			}
		}
		if _, err := failed.TrainBatch([][][]float64{good}, failedOpt); err != nil {
			t.Fatal(err)
		}
		if _, err := clean.TrainBatch([][][]float64{good}, cleanOpt); err != nil {
			t.Fatal(err)
		}
		sameParams(t, "after a rejected batch", failed, clean)
	}
}

// TestTrainBatchSteadyStateAllocs bounds a steady-state minibatch of four
// MHEALTH-shaped windows (128×18): the scratch is the model's and reused,
// so what remains is the parameter list and repacking the updated weights.
// The scalar trainer made 12 198 (LSTM) and 17 552 (BiLSTM).
func TestTrainBatchSteadyStateAllocs(t *testing.T) {
	for _, bidi := range []bool{false, true} {
		m, opt := newTrainer(t, 1, Config{InSize: 18, HiddenSize: 16, Bidirectional: bidi, DropRate: 0.3})
		batch := randWindows(4, 128, 18, rand.New(rand.NewSource(2)))
		if _, err := m.TrainBatch(batch, opt); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := m.TrainBatch(batch, opt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 64 {
			t.Fatalf("bidirectional=%v: TrainBatch allocates %.0f objects/call in steady state, want ≤ 64", bidi, allocs)
		}
		t.Logf("bidirectional=%v: %.0f allocations per TrainBatch", bidi, allocs)
	}
}
