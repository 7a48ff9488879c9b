package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// numericalGrad estimates ∂L/∂θ for every parameter of net at input x with
// target y using central differences, where L is the MSE loss.
func numericalGrad(t *testing.T, net *Sequential, x, y []float64, eps float64) [][]float64 {
	t.Helper()
	lossAt := func() float64 {
		out, err := net.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		l, _, err := MSELoss(out, y)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	var grads [][]float64
	for _, p := range net.Params() {
		g := make([]float64, len(p.Value.Data))
		for i := range p.Value.Data {
			// Direct weight pokes must invalidate the panel cache, like
			// every real weight-mutation path does.
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			p.invalidate()
			lp := lossAt()
			p.Value.Data[i] = orig - eps
			p.invalidate()
			lm := lossAt()
			p.Value.Data[i] = orig
			p.invalidate()
			g[i] = (lp - lm) / (2 * eps)
		}
		grads = append(grads, g)
	}
	return grads
}

func analyticGrad(t *testing.T, net *Sequential, x, y []float64) [][]float64 {
	t.Helper()
	net.ZeroGrads()
	out, err := net.ForwardBatch(rowView(x))
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := MSELoss(out.Data, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.BackwardBatch(rowView(g)); err != nil {
		t.Fatal(err)
	}
	var grads [][]float64
	for _, p := range net.Params() {
		grads = append(grads, mat.CloneVec(p.Grad.Data))
	}
	return grads
}

func assertGradsMatch(t *testing.T, numeric, analytic [][]float64, tol float64) {
	t.Helper()
	if len(numeric) != len(analytic) {
		t.Fatalf("param count mismatch: %d vs %d", len(numeric), len(analytic))
	}
	for pi := range numeric {
		for i := range numeric[pi] {
			n, a := numeric[pi][i], analytic[pi][i]
			if math.Abs(n-a) > tol*(1+math.Abs(n)) {
				t.Fatalf("param %d elem %d: numeric %g vs analytic %g", pi, i, n, a)
			}
		}
	}
}

func TestDenseGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := NewSequential(NewDense(4, 3, rng))
	x := []float64{0.5, -1.2, 0.3, 2.0}
	y := []float64{1, 0, -1}
	assertGradsMatch(t, numericalGrad(t, net, x, y, 1e-6), analyticGrad(t, net, x, y), 1e-5)
}

func TestDeepNetGradientCheck(t *testing.T) {
	for _, fn := range []ActFunc{ActReLU, ActSigmoid, ActTanh, ActLinear} {
		t.Run(fn.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			net := NewSequential(
				NewDense(3, 5, rng),
				NewActivation(fn),
				NewDense(5, 4, rng),
				NewActivation(fn),
				NewDense(4, 2, rng),
			)
			x := []float64{0.3, -0.7, 1.1}
			y := []float64{0.5, -0.5}
			// ReLU kinks make central differences noisy near 0; shift inputs
			// away from kinks with a larger epsilon tolerance.
			assertGradsMatch(t, numericalGrad(t, net, x, y, 1e-6), analyticGrad(t, net, x, y), 1e-4)
		})
	}
}

func TestDenseBackwardBeforeForwardErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(2, 2, rng)
	if _, err := d.BackwardBatch(rowView([]float64{1, 1})); err == nil {
		t.Fatal("BackwardBatch before ForwardBatch must error")
	}
}

func TestDenseShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(3, 2, rng)
	var y mat.Matrix
	if err := d.ApplyBatch(&y, rowView([]float64{1})); err == nil {
		t.Fatal("ApplyBatch with wrong width must error")
	}
	if _, err := d.ForwardBatch(rowView([]float64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BackwardBatch(rowView([]float64{1, 2, 3})); err == nil {
		t.Fatal("BackwardBatch with wrong width must error")
	}
	if n, err := d.OutSize(3); err != nil || n != 2 {
		t.Fatalf("OutSize(3) = %d, %v", n, err)
	}
	if _, err := d.OutSize(4); err == nil {
		t.Fatal("OutSize must reject wrong input width")
	}
}

func TestActivationValues(t *testing.T) {
	cases := []struct {
		fn   ActFunc
		in   float64
		want float64
	}{
		{ActLinear, -2.5, -2.5},
		{ActReLU, -1, 0},
		{ActReLU, 2, 2},
		{ActSigmoid, 0, 0.5},
		{ActTanh, 0, 0},
	}
	for _, c := range cases {
		if got := c.fn.Apply(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v(%g) = %g, want %g", c.fn, c.in, got, c.want)
		}
	}
	if got := ActSigmoid.Apply(1000); got != 1 {
		t.Errorf("sigmoid(1000) = %g, want 1", got)
	}
	if got := ActSigmoid.Apply(-1000); got != 0 {
		t.Errorf("sigmoid(-1000) = %g, want 0", got)
	}
}

func TestSequentialOutSizeValidatesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewSequential(NewDense(4, 8, rng), NewActivation(ActReLU), NewDense(8, 2, rng))
	n, err := net.OutSize(4)
	if err != nil || n != 2 {
		t.Fatalf("OutSize = %d, %v; want 2, nil", n, err)
	}
	bad := NewSequential(NewDense(4, 8, rng), NewDense(9, 2, rng))
	if _, err := bad.OutSize(4); err == nil {
		t.Fatal("mismatched chain must error")
	}
}

func TestNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewSequential(NewDense(4, 100, rng), NewActivation(ActReLU), NewDense(100, 3, rng))
	want := 4*100 + 100 + 100*3 + 3
	if got := net.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}

func TestFlopsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewSequential(NewDense(10, 20, rng), NewActivation(ActTanh), NewDense(20, 5, rng))
	want := int64(2*10*20 + 2*20*5)
	if got := net.FlopsDense(); got != want {
		t.Fatalf("FlopsDense = %d, want %d", got, want)
	}
}

func TestMSELoss(t *testing.T) {
	loss, grad, err := MSELoss([]float64{1, 2}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-(1.0+4.0)/4) > 1e-12 {
		t.Fatalf("loss = %g, want 1.25", loss)
	}
	if math.Abs(grad[0]-0.5) > 1e-12 || math.Abs(grad[1]-1.0) > 1e-12 {
		t.Fatalf("grad = %v, want [0.5 1]", grad)
	}
	if _, _, err := MSELoss([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("MSELoss must reject length mismatch")
	}
}
