package rnn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
)

// seqLoss is a deterministic scalar loss over all hidden states: the mean of
// ½h² summed across steps, whose gradient w.r.t. h_t is h_t/(T·H).
func seqLoss(hs [][]float64) (float64, [][]float64) {
	n := float64(len(hs) * len(hs[0]))
	var loss float64
	grads := make([][]float64, len(hs))
	for t, h := range hs {
		g := make([]float64, len(h))
		for i, v := range h {
			loss += v * v / 2
			g[i] = v / n
		}
		grads[t] = g
	}
	return loss / n, grads
}

func randSeq(rng *rand.Rand, T, d int) [][]float64 {
	xs := make([][]float64, T)
	for t := range xs {
		x := make([]float64, d)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		xs[t] = x
	}
	return xs
}

func TestLSTMForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM(3, 5, rng)
	xs := randSeq(rng, 7, 3)
	hs, hT, cT, err := l.ForwardSeq(xs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 7 || len(hs[0]) != 5 || len(hT) != 5 || len(cT) != 5 {
		t.Fatalf("shapes: hs %dx%d hT %d cT %d", len(hs), len(hs[0]), len(hT), len(cT))
	}
	if !mat.IsFinite(hT) || !mat.IsFinite(cT) {
		t.Fatal("non-finite states")
	}
	// Hidden states are tanh-bounded.
	for _, h := range hs {
		for _, v := range h {
			if v < -1 || v > 1 {
				t.Fatalf("hidden state %g outside (-1,1)", v)
			}
		}
	}
}

func TestLSTMRejectsBadShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM(3, 4, rng)
	if _, _, _, err := l.ForwardSeq([][]float64{{1, 2}}, nil, nil); err == nil {
		t.Fatal("wrong input width must error")
	}
	if _, _, _, err := l.ForwardSeq(randSeq(rng, 2, 3), []float64{1}, nil); err == nil {
		t.Fatal("wrong h0 width must error")
	}
	if _, _, _, err := l.BackwardSeq(nil, nil, nil); err == nil {
		t.Fatal("BackwardSeq without cached forward must error")
	}
}

func TestLSTMForgetBiasInit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM(2, 3, rng)
	for i := 0; i < 3; i++ {
		if l.B[i] != 0 {
			t.Fatal("input-gate bias should start at 0")
		}
		if l.B[3+i] != 1 {
			t.Fatal("forget-gate bias should start at 1")
		}
	}
}

// TestLSTMGradientCheckParams verifies BPTT parameter gradients against
// central differences on a small configuration.
func TestLSTMGradientCheckParams(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := NewLSTM(2, 3, rng)
	xs := randSeq(rng, 4, 2)

	lossAt := func() float64 {
		hs, _, _, err := l.ForwardSeq(xs, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		loss, _ := seqLoss(hs)
		return loss
	}

	// Analytic gradients.
	hs, _, _, err := l.ForwardSeq(xs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, dhs := seqLoss(hs)
	if _, _, _, err := l.BackwardSeq(dhs, nil, nil); err != nil {
		t.Fatal(err)
	}
	analytic := make([][]float64, 0, 3)
	for _, p := range l.Params() {
		analytic = append(analytic, mat.CloneVec(p.Grad.Data))
	}

	// Numerical gradients.
	const eps = 1e-6
	for pi, p := range l.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := lossAt()
			p.Value.Data[i] = orig - eps
			lm := lossAt()
			p.Value.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-analytic[pi][i]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("param %d elem %d: numeric %g vs analytic %g", pi, i, num, analytic[pi][i])
			}
		}
	}
}

// TestLSTMGradientCheckInputs verifies ∂L/∂x_t against central differences.
func TestLSTMGradientCheckInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	l := NewLSTM(3, 4, rng)
	xs := randSeq(rng, 3, 3)

	hs, _, _, err := l.ForwardSeq(xs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, dhs := seqLoss(hs)
	dxs, _, _, err := l.BackwardSeq(dhs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	const eps = 1e-6
	for ti := range xs {
		for i := range xs[ti] {
			orig := xs[ti][i]
			xs[ti][i] = orig + eps
			hp, _, _, _ := l.ForwardSeq(xs, nil, nil)
			lp, _ := seqLoss(hp)
			xs[ti][i] = orig - eps
			hm, _, _, _ := l.ForwardSeq(xs, nil, nil)
			lm, _ := seqLoss(hm)
			xs[ti][i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-dxs[ti][i]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("dx[%d][%d]: numeric %g vs analytic %g", ti, i, num, dxs[ti][i])
			}
		}
	}
}

// TestLSTMGradientCheckFinalState verifies that gradients injected at the
// final states (as a decoder does) propagate correctly.
func TestLSTMGradientCheckFinalState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewLSTM(2, 3, rng)
	xs := randSeq(rng, 3, 2)

	finalLoss := func() float64 {
		_, hT, cT, err := l.ForwardSeq(xs, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, v := range hT {
			s += v * v / 2
		}
		for _, v := range cT {
			s += v * v / 2
		}
		return s
	}

	_, hT, cT, err := l.ForwardSeq(xs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := l.BackwardSeq(nil, mat.CloneVec(hT), mat.CloneVec(cT)); err != nil {
		t.Fatal(err)
	}
	analytic := mat.CloneVec(l.Params()[0].Grad.Data)

	const eps = 1e-6
	p := l.Params()[0]
	for i := 0; i < len(p.Value.Data); i += 5 { // sample every 5th weight
		orig := p.Value.Data[i]
		p.Value.Data[i] = orig + eps
		lp := finalLoss()
		p.Value.Data[i] = orig - eps
		lm := finalLoss()
		p.Value.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-analytic[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("Wx[%d]: numeric %g vs analytic %g", i, num, analytic[i])
		}
	}
}

func TestLSTMCacheSingleUse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM(2, 2, rng)
	xs := randSeq(rng, 2, 2)
	if _, _, _, err := l.ForwardSeq(xs, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := l.BackwardSeq(nil, []float64{1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := l.BackwardSeq(nil, []float64{1, 1}, nil); err == nil {
		t.Fatal("second BackwardSeq on a consumed cache must error")
	}
}

func TestLSTMNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM(3, 8, rng)
	want := 4*8*3 + 4*8*8 + 4*8
	if got := l.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	if l.FlopsPerStep() != int64(2*4*8*(3+8)) {
		t.Fatalf("FlopsPerStep = %d", l.FlopsPerStep())
	}
}

func TestBiLSTMOutputLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := NewBiLSTM(2, 3, rng)
	xs := randSeq(rng, 5, 2)
	hs, hF, _, hB, _, err := b.ForwardSeq(xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 5 || len(hs[0]) != 6 {
		t.Fatalf("output shape %dx%d, want 5x6", len(hs), len(hs[0]))
	}
	// At the last original step the forward half equals the forward final
	// state; at the first step the backward half equals the backward final
	// state.
	for i := 0; i < 3; i++ {
		if hs[4][i] != hF[i] {
			t.Fatal("forward half misaligned")
		}
		if hs[0][3+i] != hB[i] {
			t.Fatal("backward half misaligned")
		}
	}
}

// TestBiLSTMGradientCheck verifies the bidirectional backward pass.
func TestBiLSTMGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	b := NewBiLSTM(2, 2, rng)
	xs := randSeq(rng, 3, 2)

	lossAt := func() float64 {
		hs, _, _, _, _, err := b.ForwardSeq(xs)
		if err != nil {
			t.Fatal(err)
		}
		l, _ := seqLoss(hs)
		return l
	}

	hs, _, _, _, _, err := b.ForwardSeq(xs)
	if err != nil {
		t.Fatal(err)
	}
	_, dhs := seqLoss(hs)
	dxs, err := b.BackwardSeq(dhs, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	const eps = 1e-6
	for ti := range xs {
		for i := range xs[ti] {
			orig := xs[ti][i]
			xs[ti][i] = orig + eps
			lp := lossAt()
			xs[ti][i] = orig - eps
			lm := lossAt()
			xs[ti][i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-dxs[ti][i]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("dx[%d][%d]: numeric %g vs analytic %g", ti, i, num, dxs[ti][i])
			}
		}
	}
}

func TestBiLSTMNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBiLSTM(4, 6, rng)
	if got, want := b.NumParams(), 2*NewLSTM(4, 6, rng).NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}

func TestLSTMTrainsSineReconstruction(t *testing.T) {
	// A single LSTM + linear readout should learn to smooth/track a sine.
	rng := rand.New(rand.NewSource(8))
	l := NewLSTM(1, 8, rng)
	wy := mat.New(1, 8)
	nn.GlorotUniform(wy, rng)
	gy := mat.New(1, 8)
	by := []float64{0}
	gby := []float64{0}
	params := append(l.Params(),
		nn.Param{Name: "wy", Value: wy, Grad: gy, WeightDecay: true},
		nn.Param{Name: "by", Value: &mat.Matrix{Rows: 1, Cols: 1, Data: by}, Grad: &mat.Matrix{Rows: 1, Cols: 1, Data: gby}},
	)
	opt := nn.NewAdam(0.01)

	T := 20
	xs := make([][]float64, T)
	targets := make([]float64, T)
	for t := 0; t < T; t++ {
		xs[t] = []float64{math.Sin(float64(t) * 0.3)}
		targets[t] = math.Sin(float64(t+1) * 0.3) // predict next value
	}

	run := func(train bool) float64 {
		hs, _, _, err := l.ForwardSeq(xs, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var loss float64
		dhs := make([][]float64, T)
		for t2 := 0; t2 < T; t2++ {
			y, err := wy.MulVec(hs[t2])
			if err != nil {
				t.Fatal(err)
			}
			y[0] += by[0]
			d := y[0] - targets[t2]
			loss += d * d
			if train {
				dy := []float64{2 * d / float64(T)}
				if err := gy.OuterAdd(dy, hs[t2]); err != nil {
					t.Fatal(err)
				}
				gby[0] += dy[0]
				dh, err := wy.MulVecT(dy)
				if err != nil {
					t.Fatal(err)
				}
				dhs[t2] = dh
			}
		}
		if train {
			if _, _, _, err := l.BackwardSeq(dhs, nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := opt.Step(params); err != nil {
				t.Fatal(err)
			}
		}
		return loss / float64(T)
	}

	first := run(false)
	for i := 0; i < 300; i++ {
		run(true)
	}
	last := run(false)
	if last >= first/5 {
		t.Fatalf("LSTM did not learn sine prediction: %g -> %g", first, last)
	}
}
