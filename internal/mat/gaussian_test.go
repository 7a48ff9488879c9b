package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyKnownFactor(t *testing.T) {
	// A = [[4,12,-16],[12,37,-43],[-16,-43,98]] has L = [[2,0,0],[6,1,0],[-8,5,3]].
	a, _ := NewFromSlice(3, 3, []float64{4, 12, -16, 12, 37, -43, -16, -43, 98})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewFromSlice(3, 3, []float64{2, 0, 0, 6, 1, 0, -8, 5, 3})
	if !Equal(ch.L, want, 1e-12) {
		t.Fatalf("L = %v, want %v", ch.L.Data, want.Data)
	}
	// det(A) = (2·1·3)² = 36.
	if got := ch.LogDet(); math.Abs(got-math.Log(36)) > 1e-12 {
		t.Fatalf("LogDet = %g, want log 36 = %g", got, math.Log(36))
	}
}

func TestCholeskySolve(t *testing.T) {
	a, _ := NewFromSlice(2, 2, []float64{4, 2, 2, 3})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ch.Solve([]float64{8, 7})
	if err != nil {
		t.Fatal(err)
	}
	// Verify A·x = b.
	b := mulVec(a, x)
	if math.Abs(b[0]-8) > 1e-12 || math.Abs(b[1]-7) > 1e-12 {
		t.Fatalf("A·x = %v, want [8 7]", b)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	a, _ := NewFromSlice(2, 2, []float64{1, 2, 2, 1}) // indefinite
	if _, err := NewCholesky(a); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
	if _, err := NewCholesky(New(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("non-square err = %v, want ErrShape", err)
	}
}

func TestFitGaussian1DMatchesClosedForm(t *testing.T) {
	samples := [][]float64{{1}, {2}, {3}, {4}, {5}}
	g, err := FitGaussian(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Mean[0]-3) > 1e-12 {
		t.Fatalf("mean = %g, want 3", g.Mean[0])
	}
	// Population variance = 2; logPDF at the mean = −½ log(2π·2).
	lp, err := g.LogPDF([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	want := -0.5 * math.Log(2*math.Pi*2)
	if math.Abs(lp-want) > 1e-12 {
		t.Fatalf("LogPDF(mean) = %g, want %g", lp, want)
	}
}

func TestGaussianLogPDFDecreasesAwayFromMean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([][]float64, 500)
	for i := range samples {
		samples[i] = []float64{rng.NormFloat64(), rng.NormFloat64() * 2}
	}
	g, err := FitGaussian(samples, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	at := func(x, y float64) float64 {
		lp, err := g.LogPDF([]float64{x, y})
		if err != nil {
			t.Fatal(err)
		}
		return lp
	}
	center := at(g.Mean[0], g.Mean[1])
	if !(at(g.Mean[0]+1, g.Mean[1]) < center) || !(at(g.Mean[0], g.Mean[1]+4) < center) {
		t.Fatal("logPDF should decrease away from the mean")
	}
	// Farther should be lower still.
	if !(at(g.Mean[0]+3, g.Mean[1]) < at(g.Mean[0]+1, g.Mean[1])) {
		t.Fatal("logPDF should be monotone along a ray from the mean")
	}
}

func TestGaussianErrors(t *testing.T) {
	if _, err := FitGaussian(nil, 0); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("FitGaussian(nil) err = %v, want ErrNoSamples", err)
	}
	if _, err := FitGaussian([][]float64{{}}, 0); !errors.Is(err, ErrShape) {
		t.Fatalf("zero-dim err = %v, want ErrShape", err)
	}
	if _, err := FitGaussian([][]float64{{1, 2}, {1}}, 0); !errors.Is(err, ErrShape) {
		t.Fatalf("ragged err = %v, want ErrShape", err)
	}
	g, err := FitGaussian([][]float64{{1, 2}, {2, 1}, {0, 0}}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.LogPDF([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("LogPDF dim err = %v, want ErrShape", err)
	}
}

func TestFitGaussianSingleSampleNeedsRidge(t *testing.T) {
	if _, err := FitGaussian([][]float64{{1, 2}}, 0); err == nil {
		t.Fatal("degenerate covariance with no ridge must fail")
	}
	g, err := FitGaussian([][]float64{{1, 2}}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Dim() != 2 {
		t.Fatalf("Dim = %d, want 2", g.Dim())
	}
}

func TestMahalanobisAtMeanIsZero(t *testing.T) {
	g, err := FitGaussian([][]float64{{0, 0}, {1, 1}, {2, 0}, {1, -1}}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	d, err := g.Mahalanobis(g.Mean)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d) > 1e-9 {
		t.Fatalf("Mahalanobis(mean) = %g, want 0", d)
	}
}

// Property: Cholesky reconstructs the original SPD matrix: L·Lᵀ == A.
func TestQuickCholeskyReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		// Build SPD A = BᵀB + I.
		b := New(n, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a, err := Mul(b.T(), b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		llt, err := Mul(ch.L, ch.L.T())
		if err != nil {
			return false
		}
		return Equal(a, llt, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any fitted Gaussian, LogPDF is maximised at the mean.
func TestQuickLogPDFMaxAtMean(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(4)
		samples := make([][]float64, 20+rng.Intn(30))
		for i := range samples {
			s := make([]float64, d)
			for j := range s {
				s[j] = rng.NormFloat64()*3 + float64(j)
			}
			samples[i] = s
		}
		g, err := FitGaussian(samples, 1e-6)
		if err != nil {
			return false
		}
		atMean, err := g.LogPDF(g.Mean)
		if err != nil {
			return false
		}
		x := CloneVec(g.Mean)
		x[rng.Intn(d)] += rng.NormFloat64()*2 + 3
		away, err := g.LogPDF(x)
		if err != nil {
			return false
		}
		return away <= atMean+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
