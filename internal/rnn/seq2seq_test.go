package rnn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

func sineWindow(T, d int, phase float64) [][]float64 {
	xs := make([][]float64, T)
	for t := 0; t < T; t++ {
		x := make([]float64, d)
		for i := 0; i < d; i++ {
			x[i] = math.Sin(0.25*float64(t) + phase + float64(i))
		}
		xs[t] = x
	}
	return xs
}

func TestNewSeq2SeqValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewSeq2Seq(Config{InSize: 0, HiddenSize: 4}, rng); err == nil {
		t.Fatal("zero InSize must be rejected")
	}
	if _, err := NewSeq2Seq(Config{InSize: 2, HiddenSize: 4, DropRate: 1}, rng); err == nil {
		t.Fatal("drop rate 1 must be rejected")
	}
	m, err := NewSeq2Seq(Config{InSize: 2, HiddenSize: 4, DropRate: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if m.Encoder == nil || m.BiEncoder != nil {
		t.Fatal("default must be unidirectional")
	}
	bi, err := NewSeq2Seq(Config{InSize: 2, HiddenSize: 4, Bidirectional: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if bi.BiEncoder == nil || bi.Encoder != nil {
		t.Fatal("bidirectional flag must select BiLSTM encoder")
	}
}

func TestSeq2SeqReconstructShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, err := NewSeq2Seq(Config{InSize: 3, HiddenSize: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := sineWindow(10, 3, 0)
	rec, err := m.Reconstruct(xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 10 || len(rec[0]) != 3 {
		t.Fatalf("reconstruction shape %dx%d, want 10x3", len(rec), len(rec[0]))
	}
	for _, r := range rec {
		if !allFinite(r) {
			t.Fatal("non-finite reconstruction")
		}
	}
	if _, err := m.Reconstruct(nil); err == nil {
		t.Fatal("empty sequence must error")
	}
}

func TestSeq2SeqNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := NewSeq2Seq(Config{InSize: 18, HiddenSize: 32}, rng)
	// encoder + decoder LSTMs + head.
	want := 2*(4*32*18+4*32*32+4*32) + 18*32 + 18
	if got := m.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	bi, _ := NewSeq2Seq(Config{InSize: 18, HiddenSize: 32, Bidirectional: true}, rng)
	if bi.NumParams() <= m.NumParams() {
		t.Fatal("BiLSTM model must have more parameters")
	}
}

func TestSeq2SeqCapacityOrderingMatchesPaper(t *testing.T) {
	// The paper's multivariate suite: IoT (H), Edge (2H), Cloud (Bi, 2H).
	rng := rand.New(rand.NewSource(4))
	iot, _ := NewSeq2Seq(Config{InSize: 18, HiddenSize: 16}, rng)
	edge, _ := NewSeq2Seq(Config{InSize: 18, HiddenSize: 32}, rng)
	cloud, _ := NewSeq2Seq(Config{InSize: 18, HiddenSize: 32, Bidirectional: true}, rng)
	if !(iot.NumParams() < edge.NumParams() && edge.NumParams() < cloud.NumParams()) {
		t.Fatalf("params not increasing: %d %d %d", iot.NumParams(), edge.NumParams(), cloud.NumParams())
	}
	if !(iot.FlopsPerWindow(128) < edge.FlopsPerWindow(128) && edge.FlopsPerWindow(128) < cloud.FlopsPerWindow(128)) {
		t.Fatal("flops not increasing across the suite")
	}
}

// TestSeq2SeqGradientCheck verifies the full teacher-forced backward pass
// (encoder BPTT + decoder BPTT + head) against central differences, for a
// batch of one window and a lockstep batch of three.
func TestSeq2SeqGradientCheck(t *testing.T) {
	for _, bi := range []bool{false, true} {
		name := "uni"
		if bi {
			name = "bi"
		}
		t.Run(name, func(t *testing.T) {
			for _, B := range []int{1, 3} {
				rng := rand.New(rand.NewSource(77))
				m, err := NewSeq2Seq(Config{InSize: 2, HiddenSize: 3, Bidirectional: bi}, rng)
				if err != nil {
					t.Fatal(err)
				}
				batch := make([][][]float64, B)
				for w := range batch {
					batch[w] = sineWindow(4, 2, 0.5+float64(w))
				}
				// No dropout, so the loss is a deterministic function of
				// the weights; backprop sums the windows' losses.
				lossAt := func() float64 {
					loss, err := m.backprop(batch)
					if err != nil {
						t.Fatal(err)
					}
					return loss
				}
				lossAt()
				params := m.Params()
				analytic := gradsOf(params)
				checkGrads(t, params, analytic, lossAt, 8, 1e-4)
			}
		})
	}
}

func TestSeq2SeqLearnsToReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m, err := NewSeq2Seq(Config{InSize: 2, HiddenSize: 12}, rng)
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewRMSProp(0.005)
	opt.WeightDecay = 1e-4
	opt.ClipNorm = 5

	windows := make([][][]float64, 8)
	for i := range windows {
		windows[i] = sineWindow(12, 2, float64(i)*0.4)
	}
	before, err := m.Loss(windows[0])
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 60; epoch++ {
		for _, w := range windows {
			if _, err := m.TrainBatch([][][]float64{w}, opt); err != nil {
				t.Fatal(err)
			}
		}
	}
	after, err := m.Loss(windows[0])
	if err != nil {
		t.Fatal(err)
	}
	if after >= before/3 {
		t.Fatalf("seq2seq did not learn: loss %g -> %g", before, after)
	}
}

func TestSeq2SeqTrainBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m, err := NewSeq2Seq(Config{InSize: 2, HiddenSize: 8, DropRate: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewRMSProp(0.01)
	batch := [][][]float64{sineWindow(8, 2, 0), sineWindow(8, 2, 1)}
	loss, err := m.TrainBatch(batch, opt)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 || math.IsNaN(loss) {
		t.Fatalf("batch loss = %g", loss)
	}
	if _, err := m.TrainBatch(nil, opt); err == nil {
		t.Fatal("empty batch must error")
	}
}

func TestSeq2SeqEncodedState(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, err := NewSeq2Seq(Config{InSize: 3, HiddenSize: 7}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.EncodedState(sineWindow(9, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 7 {
		t.Fatalf("encoded state width %d, want 7", len(s))
	}
	// Different inputs should produce different contexts.
	s2, err := m.EncodedState(sineWindow(9, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range s {
		if math.Abs(s[i]-s2[i]) > 1e-9 {
			same = false
			break
		}
	}
	if same {
		t.Fatal("encoded states for different inputs should differ")
	}
}

func TestSeq2SeqDeterministicInference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	m, err := NewSeq2Seq(Config{InSize: 2, HiddenSize: 5, DropRate: 0.3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := sineWindow(6, 2, 0)
	r1, err := m.Reconstruct(xs)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Reconstruct(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		for j := range r1[i] {
			if r1[i][j] != r2[i][j] {
				t.Fatal("inference must be deterministic (dropout disabled)")
			}
		}
	}
}
