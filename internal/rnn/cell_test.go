package rnn

import (
	"fmt"
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

// TestCellKernelMatchesScalarCell pins the dispatched cell — mat.LSTMCell's
// groups of four, then the scalar loop from the first group it declines on
// and for the tail — to the scalar cell bit for bit at every exact dispatch
// level: the activated gates in z, c, h and tanh(c), at widths that are and
// are not multiples of four. Pre-activations sit on both sides of σ's and
// tanh's branch edges and of the kernel's guards, plus NaN and ±Inf, in
// every lane of every gate block and of c. As in recur, tanh(c) goes to a
// scratch slice reused from call to call, and z is a row of a larger slab;
// the values around every output must come back untouched.
func TestCellKernelMatchesScalarCell(t *testing.T) {
	const tanhSaturates = 0.5 * 8.8029691931113054295988e+01
	var edges []float64
	for _, edge := range []float64{0, 0.625, tanhSaturates, 353, 354, 708} {
		for _, v := range []float64{edge, math.Nextafter(edge, 0), math.Nextafter(edge, 1000)} {
			edges = append(edges, v, -v)
		}
	}
	specials := append(edges[:len(edges):len(edges)], math.NaN(), math.Inf(1), math.Inf(-1))

	rng := rand.New(rand.NewSource(31))
	// draw is a background lane: mostly where trained gates live, some near
	// a branch edge — when wide, a guard edge too — and, when wide, a few
	// anywhere from 1e-3 to 800 in magnitude.
	wide := true
	draw := func() float64 {
		switch rng.Intn(8) {
		case 0:
			if !wide {
				return rng.NormFloat64()
			}
			v := math.Exp(math.Log(1e-3) + (math.Log(800)-math.Log(1e-3))*rng.Float64())
			if rng.Intn(2) == 0 {
				v = -v
			}
			return v
		case 1, 2:
			near := edges
			if !wide {
				near = edges[:18] // tanh's edges: 0, 0.625 and 44.0148…
			}
			return near[rng.Intn(len(near))] * (1 + 1e-3*rng.NormFloat64())
		default:
			return 4 * rng.NormFloat64()
		}
	}
	// set makes gate lane k's pre-activation z + (zh + b) equal v: exactly,
	// with zh and b zero of v's sign, or to within rounding of a sum of
	// three nonzero parts.
	set := func(z, zh, b []float64, k int, v float64, exact bool) {
		if exact {
			z[k], zh[k], b[k] = v, math.Copysign(0, v), math.Copysign(0, v)
			return
		}
		zh[k], b[k] = rng.NormFloat64(), 0.3*rng.NormFloat64()
		z[k] = v - (zh[k] + b[k])
	}

	const pad = 4
	sentinel := math.Float64frombits(0x7ff8_dead_beef_0001)
	// padded returns a copy of v with sentinels on both sides, and the view
	// of it the cell writes through.
	padded := func(v []float64) (buf, view []float64) {
		buf = make([]float64, len(v)+2*pad)
		for i := range buf {
			buf[i] = sentinel
		}
		copy(buf[pad:], v)
		return buf, buf[pad : pad+len(v)]
	}
	bitsEqual := func(a, b []float64) int {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return i
			}
		}
		return -1
	}

	prev := mat.KernelName()
	defer func() {
		if err := mat.SetKernel(prev); err != nil {
			t.Fatal(err)
		}
	}()
	for _, k := range mat.AvailableKernels() {
		if k == mat.KernelNEON.String() {
			continue // fused, not exact
		}
		if err := mat.SetKernel(k); err != nil {
			t.Fatal(err)
		}
		cases, vector := 0, 0
		for _, H := range []int{1, 3, 4, 5, 8, 12, 16, 24, 48} {
			l := &LSTM{InSize: 1, HiddenSize: H, B: make([]float64, 4*H)}
			z, zh, c := make([]float64, 4*H), make([]float64, 4*H), make([]float64, H)
			var scratch StepState
			tc := scratch.tanhC(H)
			check := func(what string) {
				t.Helper()
				cases++
				wz, wc := mat.CloneVec(z), mat.CloneVec(c)
				wh, wtc := make([]float64, H), make([]float64, H)
				l.cellUnits(wz, zh, wc, wh, wtc, 0)

				zbuf, gz := padded(z)
				cbuf, gc := padded(c)
				hbuf, gh := padded(make([]float64, H))
				vector += mat.LSTMCell(mat.CloneVec(z), zh, l.B, mat.CloneVec(c), make([]float64, H), make([]float64, H))
				l.cell(gz, zh, gc, gh, tc)
				for _, out := range []struct {
					name      string
					got, want []float64
				}{{"z", gz, wz}, {"c", gc, wc}, {"h", gh, wh}, {"tc", tc, wtc}} {
					if i := bitsEqual(out.got, out.want); i >= 0 {
						t.Fatalf("%s H=%d %s: %s[%d] = %v (bits %x), scalar cell %v (bits %x)\nz=%v\nzh=%v\nb=%v\nc=%v",
							k, H, what, out.name, i, out.got[i], math.Float64bits(out.got[i]),
							out.want[i], math.Float64bits(out.want[i]), z, zh, l.B, c)
					}
				}
				for _, buf := range [][]float64{zbuf, cbuf, hbuf} {
					for _, i := range []int{0, 1, 2, 3, len(buf) - 4, len(buf) - 3, len(buf) - 2, len(buf) - 1} {
						if math.Float64bits(buf[i]) != math.Float64bits(sentinel) {
							t.Fatalf("%s H=%d %s: the cell wrote outside its outputs", k, H, what)
						}
					}
				}
			}
			background := func() {
				for g := range z {
					set(z, zh, l.B, g, draw(), rng.Intn(4) == 0)
				}
				for j := range c {
					c[j] = draw()
				}
			}
			for _, s := range specials {
				for u := 0; u < H; u++ {
					for block := 0; block < 4; block++ {
						background()
						set(z, zh, l.B, block*H+u, s, true)
						check("special gate")
						background()
						set(z, zh, l.B, block*H+u, s, false)
						check("special gate sum")
					}
					// The new c equals s exactly when f = σ(40) = 1 and g is a
					// zero of s's sign; and lands near s otherwise.
					background()
					c[u] = s
					set(z, zh, l.B, H+u, 40, true)
					set(z, zh, l.B, 2*H+u, math.Copysign(0, s), true)
					check("special c")
					background()
					c[u] = s
					check("special previous c")
				}
			}
			for n := 0; n < 2000; n++ {
				wide = n%2 == 0
				background()
				check("random")
			}
			wide = true
		}
		t.Logf("%s: %d cells, %d units through the vector kernel", k, cases, vector)
	}
}

// BenchmarkLSTMCell times one cell at the IoT tier's width (H = 8) and the
// cloud tier's (H = 24): "kernel" at the default dispatch level, "scalar"
// with the process pinned to sse2, where every unit takes the scalar loop.
func BenchmarkLSTMCell(b *testing.B) {
	prev := mat.KernelName()
	defer func() {
		if err := mat.SetKernel(prev); err != nil {
			b.Fatal(err)
		}
	}()
	for _, H := range []int{8, 24} {
		rng := rand.New(rand.NewSource(int64(H)))
		l := &LSTM{InSize: 1, HiddenSize: H, B: make([]float64, 4*H)}
		z0, zh := make([]float64, 4*H), make([]float64, 4*H)
		for i := range z0 {
			z0[i], zh[i], l.B[i] = 2*rng.NormFloat64(), rng.NormFloat64(), 0.3*rng.NormFloat64()
		}
		z, c, h, tc := make([]float64, 4*H), make([]float64, H), make([]float64, H), make([]float64, H)
		for _, level := range []struct{ name, kernel string }{{"kernel", prev}, {"scalar", "sse2"}} {
			if err := mat.SetKernel(level.kernel); err != nil {
				b.Skip(err)
			}
			b.Run(fmt.Sprintf("H=%d/%s", H, level.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(z, z0)
					l.cell(z, zh, c, h, tc)
				}
			})
		}
	}
}
