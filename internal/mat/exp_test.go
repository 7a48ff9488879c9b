package mat

import (
	"math"
	"math/rand"
	"testing"
)

// expSpecials are the lanes on either side of the vector kernel's guard and
// math.Exp's own exits: NaN, ±Inf, ±0, the ±708 edges, overflow (709.79 >
// 709.782…) and the subnormal and underflow range.
var expSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	708, -708, math.Nextafter(708, 1000), math.Nextafter(-708, -1000),
	709.79, -709.79, -740, -745, -746, 1e-300, -1e-300,
}

// TestExpIntoMatchesMathExp pins ExpInto to the running toolchain's
// math.Exp bit for bit at every exact dispatch level: over a million
// arguments whose magnitudes span 1e-3 to 800, and over groups of four in
// which one special lane sits among normal ones, in each position. The
// reference is math.Exp itself, so a toolchain whose math.Exp rounds
// differently fails here rather than moving the model's bits silently.
func TestExpIntoMatchesMathExp(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n = 1<<20 + 3 // + 3: a tail that is not a whole group
	lo, hi := math.Log(1e-3), math.Log(800)
	src := make([]float64, n)
	for i := range src {
		src[i] = math.Exp(lo + (hi-lo)*rng.Float64())
		if rng.Intn(2) == 0 {
			src[i] = -src[i]
		}
	}
	// Each special lane in each position of a group, the other three lanes
	// drawn where the LSTM gates live; the group after it must resume on the
	// vector path.
	for _, s := range expSpecials {
		for lane := 0; lane < 4; lane++ {
			g := make([]float64, 8)
			for i := range g {
				g[i] = 8 * rng.NormFloat64()
			}
			g[lane] = s
			src = append(src, g...)
		}
	}
	want := make([]float64, len(src))
	for i, v := range src {
		want[i] = math.Exp(v)
	}
	check := func(t *testing.T, tag string, got []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: exp(%v) = %v (bits %x), math.Exp %v (bits %x)",
					tag, src[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	for _, name := range exactKernels() {
		withKernel(t, name, func(t *testing.T) {
			got := make([]float64, len(src))
			ExpInto(got, src)
			check(t, "into a separate slice", got)
			copy(got, src)
			ExpInto(got, got)
			check(t, "in place", got)
			for _, m := range []int{0, 1, 3, 4, 5, 7} { // short calls: tail only, one group, group + tail
				short := make([]float64, m)
				ExpInto(short, src[len(src)-m:])
				for i, v := range short {
					if w := want[len(src)-m+i]; math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("length %d lane %d: %v, want %v", m, i, v, w)
					}
				}
			}
		})
	}
}

// BenchmarkExpInto compares the dispatched exp with a math.Exp loop over
// one LSTM step's gate arguments (4H = 96 at the cloud tier's fast width).
func BenchmarkExpInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 96)
	for i := range src {
		src[i] = 4 * rng.NormFloat64()
	}
	dst := make([]float64, len(src))
	b.Run("ExpInto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ExpInto(dst, src)
		}
	})
	b.Run("math.Exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, v := range src {
				dst[j] = math.Exp(v)
			}
		}
	})
}
