package rnn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// TestGateHelpersMatchMath pins the cell's activations, fed from one
// mat.ExpInto pass as the cell feeds them, to 1/(1+math.Exp(−x)) and
// math.Tanh bit for bit at every exact dispatch level: over a million
// arguments whose magnitudes span 1e-3 to 800, plus NaN, ±Inf, ±0, the
// vector exp's ±708 guard, and both sides of tanh's 0.625 and 44.0148
// branch edges.
func TestGateHelpersMatchMath(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	lo, hi := math.Log(1e-3), math.Log(800)
	xs := make([]float64, 1<<20)
	for i := range xs {
		xs[i] = math.Exp(lo + (hi-lo)*rng.Float64())
		if rng.Intn(2) == 0 {
			xs[i] = -xs[i]
		}
	}
	const tanhSaturates = 0.5 * 8.8029691931113054295988e+01
	for _, edge := range []float64{0, 0.625, tanhSaturates, 354, 708, 709.79, 745} {
		for _, v := range []float64{edge, math.Nextafter(edge, 0), math.Nextafter(edge, 1000)} {
			xs = append(xs, v, -v)
		}
	}
	xs = append(xs, math.NaN(), math.Inf(1), math.Inf(-1))
	same := func(got, want float64) bool {
		return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
	}
	prev := mat.KernelName()
	defer func() {
		if err := mat.SetKernel(prev); err != nil {
			t.Fatal(err)
		}
	}()
	neg, twice := make([]float64, len(xs)), make([]float64, len(xs))
	for _, k := range mat.AvailableKernels() {
		if k == mat.KernelNEON.String() {
			continue // fused, not exact
		}
		if err := mat.SetKernel(k); err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			neg[i], twice[i] = -x, 2*math.Abs(x)
		}
		mat.ExpInto(neg, neg)
		mat.ExpInto(twice, twice)
		for i, x := range xs {
			if got, want := sigmoidFromExp(neg[i]), 1/(1+math.Exp(-x)); !same(got, want) {
				t.Fatalf("%s: sigmoid(%v) = %v, want %v", k, x, got, want)
			}
			if got, want := tanhFromExp(x, twice[i]), math.Tanh(x); !same(got, want) {
				t.Fatalf("%s: tanh(%v) = %v, want %v", k, x, got, want)
			}
		}
	}
}
