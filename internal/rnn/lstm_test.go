package rnn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
)

// seqLoss is a deterministic scalar loss over all hidden states: the mean of
// ½h², whose gradient w.r.t. each element h is h/n.
func seqLoss(hs *mat.Matrix) (float64, *mat.Matrix) {
	n := float64(len(hs.Data))
	var loss float64
	grads := mat.New(hs.Rows, hs.Cols)
	for i, v := range hs.Data {
		loss += v * v / 2
		grads.Data[i] = v / n
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

func allFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// runPass runs l's training forward over equal-length windows from zero
// states — reversed in time when reverse is set, as a BiLSTM's backward
// direction consumes them — and returns the pass with every step's hidden
// state (row w·T + t).
func runPass(t *testing.T, l *LSTM, windows [][][]float64, reverse bool) (*lstmPass, *mat.Matrix) {
	t.Helper()
	p := new(lstmPass)
	p.load(l, windows, reverse)
	hs := mat.New(p.B*p.T, l.HiddenSize)
	if err := l.forward(p, hs); err != nil {
		t.Fatal(err)
	}
	return p, hs
}

// invalidate drops the packed panels of every parameter, as an optimiser
// step does; gradient checks that poke weights directly must call it.
func invalidate(params []nn.Param) {
	for _, p := range params {
		if p.Cache != nil {
			p.Cache.Invalidate()
		}
	}
}

// checkGrads compares analytic gradients against central differences of
// loss, over every element of every parameter when sample is 0 and about
// sample elements of each otherwise.
func checkGrads(t *testing.T, params []nn.Param, analytic [][]float64, loss func() float64, sample int, tol float64) {
	t.Helper()
	const eps = 1e-6
	for pi, p := range params {
		stride := 1
		if sample > 0 {
			stride += len(p.Value.Data) / sample
		}
		for i := 0; i < len(p.Value.Data); i += stride {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			invalidate(params)
			lp := loss()
			p.Value.Data[i] = orig - eps
			invalidate(params)
			lm := loss()
			p.Value.Data[i] = orig
			invalidate(params)
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-analytic[pi][i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("param %d (%s) elem %d: numeric %g vs analytic %g", pi, p.Name, i, num, analytic[pi][i])
			}
		}
	}
}

// gradsOf snapshots and zeroes the parameters' accumulated gradients.
func gradsOf(params []nn.Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = mat.CloneVec(p.Grad.Data)
		p.Grad.Zero()
	}
	return out
}

func TestLSTMForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM(3, 5, rng)
	windows := [][][]float64{randSeq(rng, 7, 3), randSeq(rng, 7, 3)}
	p, hs := runPass(t, l, windows, false)
	if hs.Rows != 14 || hs.Cols != 5 || p.st.H.Rows != 2 || p.st.H.Cols != 5 || p.st.C.Cols != 5 {
		t.Fatalf("shapes: hs %dx%d final h %dx%d c %dx%d", hs.Rows, hs.Cols, p.st.H.Rows, p.st.H.Cols, p.st.C.Rows, p.st.C.Cols)
	}
	if !allFinite(p.st.H.Data) || !allFinite(p.st.C.Data) {
		t.Fatal("non-finite states")
	}
	// Hidden states are tanh-bounded, and the last step's is the final one.
	for _, v := range hs.Data {
		if v < -1 || v > 1 {
			t.Fatalf("hidden state %g outside (-1,1)", v)
		}
	}
	for w := 0; w < 2; w++ {
		for i, v := range p.st.H.Row(w) {
			if hs.At(w*7+6, i) != v {
				t.Fatalf("window %d: last hidden state is not the final state", w)
			}
		}
	}
}

// TestLSTMRejectsBadShapes: the batched step rejects inputs and states that
// do not match the LSTM.
func TestLSTMRejectsBadShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM(3, 4, rng)
	var st StepState
	st.Reset(2, 4)
	if err := l.StepBatch(&st, mat.New(2, 2)); err == nil {
		t.Fatal("wrong input width must error")
	}
	if err := l.StepBatch(&st, mat.New(3, 3)); err == nil {
		t.Fatal("input rows not matching the state batch must error")
	}
	st.Reset(2, 3)
	if err := l.StepBatch(&st, mat.New(2, 3)); err == nil {
		t.Fatal("wrong state width must error")
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

// TestLSTMGradientCheckParams verifies the batched BPTT parameter gradients
// against central differences, over a batch of two windows.
func TestLSTMGradientCheckParams(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := NewLSTM(2, 3, rng)
	windows := [][][]float64{randSeq(rng, 4, 2), randSeq(rng, 4, 2)}

	p, hs := runPass(t, l, windows, false)
	_, dhs := seqLoss(hs)
	if err := l.backward(p, dhs); err != nil {
		t.Fatal(err)
	}
	analytic := gradsOf(l.Params())
	checkGrads(t, l.Params(), analytic, func() float64 {
		_, hs := runPass(t, l, windows, false)
		loss, _ := seqLoss(hs)
		return loss
	}, 0, 1e-5)
}

// TestLSTMGradientCheckFinalState verifies that gradients injected at the
// final states (as a decoder does) propagate correctly.
func TestLSTMGradientCheckFinalState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewLSTM(2, 3, rng)
	windows := [][][]float64{randSeq(rng, 3, 2)}

	finalLoss := func() float64 {
		p, _ := runPass(t, l, windows, false)
		var s float64
		for _, v := range p.st.H.Data {
			s += v * v / 2
		}
		for _, v := range p.st.C.Data {
			s += v * v / 2
		}
		return s
	}

	p, _ := runPass(t, l, windows, false)
	copy(p.dh.Data, p.st.H.Data)
	copy(p.dc.Data, p.st.C.Data)
	if err := l.backward(p, nil); err != nil {
		t.Fatal(err)
	}
	analytic := gradsOf(l.Params())
	checkGrads(t, l.Params()[:1], analytic, finalLoss, 8, 1e-4) // sampled Wx weights
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

// TestBiLSTMOutputLayout pins the bidirectional training encoder's layout:
// the forward direction ends after x_{T−1} and the backward one after x_0,
// each exactly where the inference step evolves it.
func TestBiLSTMOutputLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := NewBiLSTM(2, 3, rng)
	xs := randSeq(rng, 5, 2)
	for _, dir := range []struct {
		l       *LSTM
		reverse bool
	}{{b.Fwd, false}, {b.Bwd, true}} {
		p, _ := runPass(t, dir.l, [][][]float64{xs}, dir.reverse)
		var st StepState
		st.Reset(1, 3)
		for s := range xs {
			src := s
			if dir.reverse {
				src = len(xs) - 1 - s
			}
			x, _ := mat.NewFromRows([][]float64{xs[src]})
			if err := dir.l.StepBatch(&st, x); err != nil {
				t.Fatal(err)
			}
		}
		for i := range st.H.Data {
			if p.st.H.Data[i] != st.H.Data[i] || p.st.C.Data[i] != st.C.Data[i] {
				t.Fatalf("reverse=%v unit %d: training final state differs from inference", dir.reverse, i)
			}
		}
	}
}

// TestBiLSTMGradientCheck verifies the parameter gradients of both
// directions under a loss over every hidden state of each.
func TestBiLSTMGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	b := NewBiLSTM(2, 2, rng)
	windows := [][][]float64{randSeq(rng, 3, 2)}

	lossAt := func() float64 {
		_, hf := runPass(t, b.Fwd, windows, false)
		_, hb := runPass(t, b.Bwd, windows, true)
		lf, _ := seqLoss(hf)
		lb, _ := seqLoss(hb)
		return lf + lb
	}
	for _, dir := range []struct {
		l       *LSTM
		reverse bool
	}{{b.Fwd, false}, {b.Bwd, true}} {
		p, hs := runPass(t, dir.l, windows, dir.reverse)
		_, dhs := seqLoss(hs)
		if err := dir.l.backward(p, dhs); err != nil {
			t.Fatal(err)
		}
	}
	analytic := gradsOf(b.Params())
	checkGrads(t, b.Params(), analytic, lossAt, 0, 1e-5)
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
		p, hs := runPass(t, l, [][][]float64{xs}, false)
		var loss float64
		dhs := mat.New(T, 8)
		for t2 := 0; t2 < T; t2++ {
			y := mulVec(wy, hs.Row(t2))[0] + by[0]
			d := y - targets[t2]
			loss += d * d
			if train {
				dy := []float64{2 * d / float64(T)}
				if err := gy.OuterAdd(dy, hs.Row(t2)); err != nil {
					t.Fatal(err)
				}
				gby[0] += dy[0]
				copy(dhs.Row(t2), mulVecT(wy, dy))
			}
		}
		if train {
			if err := l.backward(p, dhs); err != nil {
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
