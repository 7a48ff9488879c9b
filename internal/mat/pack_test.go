package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refMulBT is the plain scalar reference for a·bᵀ: one dot product per
// element, shared dimension ascending — the order every exact kernel is
// pinned against.
func refMulBT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for kk := 0; kk < a.Cols; kk++ {
				s += a.Data[i*a.Cols+kk] * b.Data[j*b.Cols+kk]
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	return out
}

func bitEqual(t *testing.T, tag string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: got %dx%d, want %dx%d", tag, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, g := range got.Data {
		w := want.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				tag, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// mulBTShapes exercises full groups, group tails, odd sample rows,
// batch-of-1 and empty shared dimensions at both panel widths.
var mulBTShapes = [][3]int{ // {m, k, n}
	{1, 5, 3}, {2, 0, 4}, {1, 1, 1}, {3, 7, 8}, {2, 13, 4},
	{5, 16, 9}, {7, 13, 17}, {8, 31, 12}, {16, 32, 33}, {9, 672, 48},
}

func TestMulBTPackedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, name := range exactKernels() {
		withKernel(t, name, func(t *testing.T) {
			for _, s := range mulBTShapes {
				a := randMatrix(s[0], s[1], rng)
				b := randMatrix(s[2], s[1], rng)
				want := refMulBT(a, b)
				p := Pack(b)
				got := New(s[0], s[2])
				got.Fill(math.NaN()) // catch unwritten elements
				if err := MulBTPackedInto(got, a, p); err != nil {
					t.Fatalf("MulBTPackedInto %v: %v", s, err)
				}
				bitEqual(t, KernelName(), got, want)
			}
		})
	}
}

// TestMulBTPackedFewRowsMatchesMulBT pins the lone and odd trailing row of
// the packed product — the 1×32 group of four panels, then single panels,
// then the tail columns — to MulBTInto bit for bit, at widths on both sides
// of each boundary and at the shared dimensions the models use.
func TestMulBTPackedFewRowsMatchesMulBT(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, name := range exactKernels() {
		withKernel(t, name, func(t *testing.T) {
			for _, m := range []int{1, 3, 5} {
				for _, n := range []int{8, 24, 32, 33, 96, 336} {
					for _, k := range []int{1, 18, 24, 672} {
						a := randMatrix(m, k, rng)
						b := randMatrix(n, k, rng)
						want := New(m, n)
						if err := MulBTInto(want, a, b); err != nil {
							t.Fatal(err)
						}
						got := New(m, n)
						got.Fill(math.NaN()) // catch unwritten elements
						if err := MulBTPackedInto(got, a, Pack(b)); err != nil {
							t.Fatal(err)
						}
						bitEqual(t, fmt.Sprintf("%d×%d · (%d×%d)ᵀ", m, k, n, k), got, want)
					}
				}
			}
		})
	}
}

func TestMulBTPackedForeignWidth(t *testing.T) {
	// A panel packed under one kernel must stay consumable (via the generic
	// Go consumer) after the dispatch level changes — the documented
	// SetKernel contract.
	avail := map[string]bool{}
	for _, n := range AvailableKernels() {
		avail[n] = true
	}
	if !avail["avx2"] {
		t.Skip("avx2 unavailable; no foreign width to test")
	}
	rng := rand.New(rand.NewSource(12))
	a := randMatrix(6, 31, rng)
	b := randMatrix(19, 31, rng)
	want := refMulBT(a, b)

	var p *Packed
	withKernel(t, "avx2", func(t *testing.T) { p = Pack(b) })
	if p.Width() != 8 {
		t.Fatalf("avx2 pack width = %d, want 8", p.Width())
	}
	withKernel(t, "go", func(t *testing.T) {
		got := New(6, 19)
		if err := MulBTPackedInto(got, a, p); err != nil {
			t.Fatal(err)
		}
		bitEqual(t, "8-wide panel under go kernel", got, want)
	})
}

func TestMulBTCachedMatchesAndReuses(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, name := range exactKernels() {
		withKernel(t, name, func(t *testing.T) {
			a := randMatrix(5, 23, rng)
			b := randMatrix(14, 23, rng)
			want := refMulBT(a, b)
			var c PanelCache
			got := New(5, 14)
			if err := MulBTCachedInto(got, a, b, &c); err != nil {
				t.Fatal(err)
			}
			bitEqual(t, "first cached call", got, want)
			first := c.Cached()
			if first == nil {
				t.Fatal("cache empty after first call")
			}
			got.Zero()
			if err := MulBTCachedInto(got, a, b, &c); err != nil {
				t.Fatal(err)
			}
			bitEqual(t, "second cached call", got, want)
			if c.Cached() != first {
				t.Fatal("steady-state call repacked the panels")
			}
		})
	}
	// nil cache degrades to MulBTInto.
	a := randMatrix(3, 9, rng)
	b := randMatrix(5, 9, rng)
	got := New(3, 5)
	if err := MulBTCachedInto(got, a, b, nil); err != nil {
		t.Fatal(err)
	}
	bitEqual(t, "nil cache", got, refMulBT(a, b))
}

func TestPanelCacheInvalidate(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randMatrix(4, 12, rng)
	b := randMatrix(8, 12, rng)
	var c PanelCache
	dst := New(4, 8)
	if err := MulBTCachedInto(dst, a, b, &c); err != nil {
		t.Fatal(err)
	}
	if c.Cached() == nil {
		t.Fatal("cache empty after a cached product")
	}
	c.Invalidate()
	if c.Cached() != nil {
		t.Fatal("Invalidate left panels cached")
	}

	// A weight update between calls must be observed after Invalidate.
	if err := MulBTCachedInto(dst, a, b, &c); err != nil {
		t.Fatal(err)
	}
	b.Data[3] += 1.5
	c.Invalidate()
	if err := MulBTCachedInto(dst, a, b, &c); err != nil {
		t.Fatal(err)
	}
	bitEqual(t, "post-update product", dst, refMulBT(a, b))
}

func TestPanelCacheRepacksOnWidthChange(t *testing.T) {
	avail := map[string]bool{}
	for _, n := range AvailableKernels() {
		avail[n] = true
	}
	if !avail["avx2"] || !avail["sse2"] {
		t.Skip("needs both avx2 and sse2")
	}
	rng := rand.New(rand.NewSource(15))
	a := randMatrix(4, 10, rng)
	b := randMatrix(16, 10, rng)
	want := refMulBT(a, b)
	var c PanelCache
	dst := New(4, 16)
	withKernel(t, "avx2", func(t *testing.T) {
		if err := MulBTCachedInto(dst, a, b, &c); err != nil {
			t.Fatal(err)
		}
		if w := c.Cached().Width(); w != 8 {
			t.Fatalf("avx2 cached width = %d", w)
		}
	})
	withKernel(t, "sse2", func(t *testing.T) {
		dst.Zero()
		if err := MulBTCachedInto(dst, a, b, &c); err != nil {
			t.Fatal(err)
		}
		if w := c.Cached().Width(); w != 4 {
			t.Fatalf("post-switch cached width = %d, want 4", w)
		}
		bitEqual(t, "post-switch product", dst, want)
	})
}

func TestPackSnapshotsWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := randMatrix(3, 8, rng)
	b := randMatrix(6, 8, rng)
	want := refMulBT(a, b)
	p := Pack(b)
	b.Fill(99) // later writes must not leak into the panels
	got := New(3, 6)
	if err := MulBTPackedInto(got, a, p); err != nil {
		t.Fatal(err)
	}
	bitEqual(t, "packed snapshot", got, want)
}

func TestI8RowScale(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		row := make([]float64, 1+rng.Intn(64))
		for i := range row {
			row[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
		scale := I8RowScale(row)
		if scale <= 0 {
			t.Fatalf("scale = %v for non-zero row", scale)
		}
		// Power of two: Frexp mantissa exactly 0.5.
		if f, _ := math.Frexp(scale); f != 0.5 {
			t.Fatalf("scale %v is not a power of two", scale)
		}
		maxAbs := 0.0
		for _, v := range row {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs > 127*scale {
			t.Fatalf("maxAbs %v exceeds 127·scale %v", maxAbs, 127*scale)
		}
		if maxAbs <= 127*scale/4 {
			t.Fatalf("scale %v too coarse for maxAbs %v", scale, maxAbs)
		}
		for _, v := range row {
			q := I8Quantize(v, scale)
			if q > 127 || q < -127 {
				t.Fatalf("code %d out of range", q)
			}
			// Error budget: at most half a step, and the step is at most
			// maxAbs/63.5 (the power-of-two scale spends up to one bit).
			if err := math.Abs(v - QuantizeI8(v, scale)); err > scale/2 {
				t.Fatalf("quantization error %v exceeds scale/2 = %v", err, scale/2)
			}
		}
	}
	if s := I8RowScale([]float64{0, 0, 0}); s != 0 {
		t.Errorf("zero row scale = %v, want 0", s)
	}
	if s := I8RowScale([]float64{1, math.Inf(1)}); s != 0 {
		t.Errorf("non-finite row scale = %v, want 0", s)
	}
	if q := I8Quantize(5, 0); q != 0 {
		t.Errorf("I8Quantize at zero scale = %d, want 0", q)
	}
}

func TestAxpyExactAcrossKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{0, 1, 3, 4, 15, 16, 17, 31, 32, 100, 1023} {
		x := make([]float64, n)
		y0 := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y0[i] = rng.NormFloat64()
		}
		s := rng.NormFloat64()
		want := append([]float64(nil), y0...)
		for i, v := range x {
			want[i] += s * v
		}
		for _, name := range exactKernels() {
			withKernel(t, name, func(t *testing.T) {
				got := append([]float64(nil), y0...)
				if err := AxpyVec(s, x, got); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d element %d = %v, want %v", n, i, got[i], want[i])
					}
				}
			})
		}
	}
}

func TestAdamUpdateExactAcrossKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const beta1, beta2, lr, eps = 0.9, 0.999, 1e-3, 1e-8
	c1 := 1 - math.Pow(beta1, 7)
	c2 := 1 - math.Pow(beta2, 7)
	for _, n := range []int{1, 5, 15, 16, 19, 64, 257, 1024} {
		w0 := make([]float64, n)
		g0 := make([]float64, n)
		m0 := make([]float64, n)
		v0 := make([]float64, n)
		for i := range w0 {
			w0[i] = rng.NormFloat64()
			g0[i] = rng.NormFloat64() * 1e-2
			m0[i] = rng.NormFloat64() * 1e-3
			v0[i] = math.Abs(rng.NormFloat64()) * 1e-6
		}
		// Seed the flushTiny-sensitive region and special values.
		if n >= 16 {
			w0[0], g0[0], m0[0], v0[0] = 2e-150, 0, 1.2e-150, 0.9e-150
			w0[1], g0[1] = -1.5e-150, 0
			m0[2], v0[2] = -9e-151, 5e-151
			g0[3] = 0
			w0[4], g0[4] = 0, 0
			g0[5] = math.NaN()
			v0[6] = 5e-324 // denormal second moment
		}
		want := struct{ w, m, v []float64 }{
			append([]float64(nil), w0...),
			append([]float64(nil), m0...),
			append([]float64(nil), v0...),
		}
		adamScalar(want.w, g0, want.m, want.v, beta1, beta2, c1, c2, lr, eps)
		for _, name := range exactKernels() {
			withKernel(t, name, func(t *testing.T) {
				w := append([]float64(nil), w0...)
				m := append([]float64(nil), m0...)
				v := append([]float64(nil), v0...)
				if err := AdamUpdate(w, g0, m, v, beta1, beta2, c1, c2, lr, eps); err != nil {
					t.Fatal(err)
				}
				check := func(tag string, got, wantS []float64) {
					for i := range got {
						gb, wb := math.Float64bits(got[i]), math.Float64bits(wantS[i])
						if gb != wb && !(math.IsNaN(got[i]) && math.IsNaN(wantS[i])) {
							t.Fatalf("n=%d %s[%d] = %v (bits %x), want %v (bits %x)",
								n, tag, i, got[i], gb, wantS[i], wb)
						}
					}
				}
				check("w", w, want.w)
				check("m", m, want.m)
				check("v", v, want.v)
			})
		}
	}
	if err := AdamUpdate(make([]float64, 3), make([]float64, 2), make([]float64, 3), make([]float64, 3), beta1, beta2, c1, c2, lr, eps); err == nil {
		t.Fatal("AdamUpdate accepted mismatched lengths")
	}
}

func TestFlushTiny(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {1e-151, 0}, {-1e-151, 0}, {9.99e-151, 0},
		{1e-150, 1e-150}, {-1e-150, -1e-150}, {1, 1}, {-2.5, -2.5},
		{math.Inf(1), math.Inf(1)},
	}
	for _, c := range cases {
		if got := FlushTiny(c.in); got != c.want {
			t.Errorf("FlushTiny(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(FlushTiny(math.NaN())) {
		t.Error("FlushTiny(NaN) lost the NaN")
	}
}
