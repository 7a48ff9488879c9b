package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	got, err := Dot([]float64{1, 2, 3}, []float64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got != 32 {
		t.Fatalf("Dot = %g, want 32", got)
	}
	if _, err := Dot([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatalf("Dot shape error = %v, want ErrShape", err)
	}
}

func TestVectorArithmetic(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}

	y := CloneVec(a)
	if err := AxpyVec(2, b, y); err != nil {
		t.Fatal(err)
	}
	if y[0] != 7 || y[1] != 12 {
		t.Fatalf("AxpyVec = %v, want [7 12]", y)
	}
	// Mismatched lengths must error, not panic.
	if err := AxpyVec(1, a, []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatal("AxpyVec must reject mismatched lengths")
	}
}

func TestCloneVecNilSafe(t *testing.T) {
	got := CloneVec(nil)
	if got == nil || len(got) != 0 {
		t.Fatalf("CloneVec(nil) = %v, want empty non-nil", got)
	}
}

func TestStats(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := MeanVec(x); got != 5 {
		t.Fatalf("MeanVec = %g, want 5", got)
	}
	if got := StdVec(x); math.Abs(got-2) > 1e-12 {
		t.Fatalf("StdVec = %g, want 2", got)
	}
	min, max := MinMaxVec(x)
	if min != 2 || max != 9 {
		t.Fatalf("MinMaxVec = (%g,%g), want (2,9)", min, max)
	}
	if got := SumVec(x); got != 40 {
		t.Fatalf("SumVec = %g, want 40", got)
	}
	if MeanVec(nil) != 0 || StdVec([]float64{1}) != 0 {
		t.Fatal("empty-input stats must be 0")
	}
}

func TestNorm2ArgMax(t *testing.T) {
	v, _ := NewFromSlice(1, 2, []float64{3, 4})
	if got := v.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("‖(3,4)‖ = %g, want 5", got)
	}
	if got := ArgMax([]float64{1, 3, 3, 2}); got != 1 {
		t.Fatalf("ArgMax = %d, want 1 (ties break low)", got)
	}
}

// softmax is SoftmaxInto into a fresh slice.
func softmax(t testing.TB, x []float64) []float64 {
	t.Helper()
	p := make([]float64, len(x))
	if err := SoftmaxInto(p, x); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSoftmaxBasics(t *testing.T) {
	x := []float64{1, 2, 3}
	p := softmax(t, x)
	if math.Abs(SumVec(p)-1) > 1e-12 {
		t.Fatalf("softmax sums to %g, want 1", SumVec(p))
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Fatalf("softmax not monotone: %v", p)
	}
	// In place: dst may alias x.
	if err := SoftmaxInto(x, x); err != nil {
		t.Fatal(err)
	}
	for i, v := range p {
		if math.Float64bits(x[i]) != math.Float64bits(v) {
			t.Fatalf("in-place softmax = %v, want %v", x, p)
		}
	}
	// Stability with large logits.
	p = softmax(t, []float64{1000, 1000, 1000})
	for _, v := range p {
		if math.Abs(v-1.0/3) > 1e-9 {
			t.Fatalf("large-logit softmax = %v, want uniform", p)
		}
	}
	if err := SoftmaxInto(nil, nil); err != nil {
		t.Fatalf("SoftmaxInto(nil, nil) = %v, want nil", err)
	}
	if err := SoftmaxInto(make([]float64, 2), p); err == nil {
		t.Fatal("SoftmaxInto must reject a length mismatch")
	}
}

// Property: softmax output is a probability distribution invariant to adding
// a constant to all logits.
func TestQuickSoftmaxInvariance(t *testing.T) {
	f := func(seed int64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			return true
		}
		shift = math.Mod(shift, 100)
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
			y[i] = x[i] + shift
		}
		px, py := softmax(t, x), softmax(t, y)
		if math.Abs(SumVec(px)-1) > 1e-9 {
			return false
		}
		for i := range px {
			if px[i] < 0 || px[i] > 1 {
				return false
			}
			if math.Abs(px[i]-py[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and bilinear in its first argument.
func TestQuickDotBilinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		ab, _ := Dot(a, b)
		ba, _ := Dot(b, a)
		if math.Abs(ab-ba) > 1e-9 {
			return false
		}
		s := rng.NormFloat64()
		sa := make([]float64, n)
		_ = AxpyVec(s, a, sa)
		sab, _ := Dot(sa, b)
		if math.Abs(sab-s*ab) > 1e-6*(1+math.Abs(s*ab)) {
			return false
		}
		apc := CloneVec(c)
		_ = AxpyVec(1, a, apc)
		lhs, _ := Dot(apc, b)
		cb, _ := Dot(c, b)
		return math.Abs(lhs-(ab+cb)) <= 1e-6*(1+math.Abs(ab+cb))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
