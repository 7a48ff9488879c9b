package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randMatrix(r, c int, rng *rand.Rand) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestMulIntoMatchesMul checks the blocked kernel against the reference
// product, including shapes that exercise partial tiles and the parallel
// row fan-out.
func TestMulIntoMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{{1, 1, 1}, {3, 5, 4}, {32, 672, 336}, {129, 257, 131}, {200, 64, 300}}
	for _, s := range shapes {
		a, b := randMatrix(s[0], s[1], rng), randMatrix(s[1], s[2], rng)
		want, err := Mul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got := New(s[0], s[2])
		got.Fill(42) // MulInto must overwrite, not accumulate
		if err := MulInto(got, a, b); err != nil {
			t.Fatal(err)
		}
		if !Equal(want, got, 0) {
			t.Fatalf("MulInto %v diverges from Mul", s)
		}
	}
}

// mulVec is the per-sample matrix-vector product the batch kernels are
// pinned against: m·x with each row accumulated in ascending column order.
func mulVec(m *Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		var s float64
		for j, v := range m.Row(i) {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// TestMulBTIntoMatchesPerSampleMulVec pins the batch-forward contract: row i
// of a·bᵀ must be bit-identical to the per-sample product b·a.Row(i), which
// is what makes ForwardBatch reproduce the per-sample forward pass exactly.
func TestMulBTIntoMatchesPerSampleMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range [][3]int{{1, 4, 3}, {33, 672, 336}, {100, 97, 51}} {
		x, w := randMatrix(s[0], s[1], rng), randMatrix(s[2], s[1], rng)
		got := New(s[0], s[2])
		if err := MulBTInto(got, x, w); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s[0]; i++ {
			for j, v := range mulVec(w, x.Row(i)) {
				if got.At(i, j) != v {
					t.Fatalf("shape %v row %d col %d: batch %g vs per-sample %g", s, i, j, got.At(i, j), v)
				}
			}
		}
	}
}

// TestMulTAddIntoMatchesOuterAdd pins the gradient contract: accumulating
// dYᵀ·X must equal per-sample OuterAdd calls in batch order, bit for bit.
func TestMulTAddIntoMatchesOuterAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, s := range [][3]int{{1, 3, 2}, {32, 40, 30}, {65, 336, 672}} {
		dy, x := randMatrix(s[0], s[1], rng), randMatrix(s[0], s[2], rng)
		want := randMatrix(s[1], s[2], rng)
		got := want.Clone()
		for i := 0; i < s[0]; i++ {
			if err := want.OuterAdd(dy.Row(i), x.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := MulTAddInto(got, dy, x); err != nil {
			t.Fatal(err)
		}
		if !Equal(want, got, 0) {
			t.Fatalf("MulTAddInto %v diverges from per-sample OuterAdd", s)
		}
	}
}

// TestMulTIntoMatchesMulT checks aᵀ·b against transpose-then-multiply.
func TestMulTIntoMatchesMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randMatrix(37, 53, rng), randMatrix(37, 29, rng)
	want, err := Mul(a.T(), b)
	if err != nil {
		t.Fatal(err)
	}
	got := New(53, 29)
	got.Fill(-3)
	if err := MulTInto(got, a, b); err != nil {
		t.Fatal(err)
	}
	if !Equal(want, got, 0) {
		t.Fatal("MulTInto diverges from Mul(aᵀ, b)")
	}
}

// TestTiledGEMMMatchesReference pins MulInto, MulTInto and MulTAddInto at
// every dispatch level, bit for bit, against Mul and per-sample OuterAdd on
// shapes that straddle every edge of avx2's 4×8 tile (and one that fans
// out). Every a is sparse, and its exact zeros sit over +Inf, −Inf and NaN
// in b and over −0 in a MulTAddInto destination: there, and only there,
// skipping a zero term differs from adding 0·b.
func TestTiledGEMMMatchesReference(t *testing.T) {
	type shape struct{ m, k, n int } // dst m×n, shared dimension k
	var shapes []shape
	for _, m := range []int{1, 3, 4, 5, 97} {
		for _, n := range []int{1, 4, 7, 8, 9, 18, 24} {
			for _, k := range []int{1, 3, 4, 512} {
				shapes = append(shapes, shape{m, k, n})
			}
		}
	}
	shapes = append(shapes, shape{300, 400, 350}) // fans out over the worker pool
	for _, name := range AvailableKernels() {
		withKernel(t, name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(6))
			for _, sh := range shapes {
				// MulInto: dst (m×n) = a (m×k) · b (k×n).
				a, b := sparseSpecials(sh.m, sh.k, sh.n, rng, false)
				want, err := Mul(a, b)
				if err != nil {
					t.Fatal(err)
				}
				got := New(sh.m, sh.n)
				got.Fill(42)
				if err := MulInto(got, a, b); err != nil {
					t.Fatal(err)
				}
				bitEqual(t, fmt.Sprintf("MulInto %v", sh), got, want)

				// MulTInto and MulTAddInto: dst (m×n) = aᵀ·b, a k×m, b k×n.
				a, b = sparseSpecials(sh.m, sh.k, sh.n, rng, true)
				if want, err = Mul(a.T(), b); err != nil {
					t.Fatal(err)
				}
				got.Fill(-3)
				if err := MulTInto(got, a, b); err != nil {
					t.Fatal(err)
				}
				bitEqual(t, fmt.Sprintf("MulTInto %v", sh), got, want)

				want = randMatrix(sh.m, sh.n, rng)
				for i := range want.Data {
					if rng.Intn(3) == 0 {
						want.Data[i] = math.Copysign(0, -1)
					}
				}
				got = want.Clone()
				for s := 0; s < sh.k; s++ {
					if err := want.OuterAdd(a.Row(s), b.Row(s)); err != nil {
						t.Fatal(err)
					}
				}
				if err := MulTAddInto(got, a, b); err != nil {
					t.Fatal(err)
				}
				bitEqual(t, fmt.Sprintf("MulTAddInto %v", sh), got, want)
			}
		})
	}
}

// sparseSpecials returns the operands of a product A·b with A m×k and b
// k×n; a holds A, or Aᵀ (k×m) when transposed. About a quarter of A is ±0,
// and so is all of some of its rows, which leaves those dst rows at their
// initial value, and all of some of its columns s, whose row s of b holds
// only +Inf, −Inf and NaN. Those never reach the reference sum, so a kernel
// that added 0·b instead of skipping it would show as a NaN or a lost −0.
func sparseSpecials(m, k, n int, rng *rand.Rand, transposed bool) (a, b *Matrix) {
	zeroRow := make([]bool, m)
	for i := range zeroRow {
		zeroRow[i] = rng.Intn(8) == 0
	}
	zeroStep := make([]bool, k)
	for s := range zeroStep {
		zeroStep[s] = rng.Intn(8) == 0
	}
	a = New(m, k)
	if transposed {
		a = New(k, m)
	}
	for i := 0; i < m; i++ {
		for s := 0; s < k; s++ {
			v := rng.NormFloat64()
			if zeroRow[i] || zeroStep[s] || rng.Intn(4) == 0 {
				v = math.Copysign(0, float64(rng.Intn(2)*2-1))
			}
			if transposed {
				a.Set(s, i, v)
			} else {
				a.Set(i, s, v)
			}
		}
	}
	b = randMatrix(k, n, rng)
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for s, zero := range zeroStep {
		if zero {
			for j := range n {
				b.Set(s, j, specials[rng.Intn(len(specials))])
			}
		}
	}
	return a, b
}

// TestMulIntoDstIndependentOfBlocking runs a product large enough for the
// parallel path and compares against the sequential reference: the blocked,
// fanned-out kernel must be bit-identical.
func TestMulIntoDstIndependentOfBlocking(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := randMatrix(300, 400, rng), randMatrix(400, 350, rng)
	want, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := New(300, 350)
	if err := MulInto(got, a, b); err != nil {
		t.Fatal(err)
	}
	if !Equal(want, got, 0) {
		t.Fatal("parallel blocked MulInto is not bit-identical to the sequential product")
	}
}

func TestBatchKernelShapeErrors(t *testing.T) {
	a, b := New(2, 3), New(4, 5)
	if err := MulInto(New(2, 5), a, b); err == nil {
		t.Fatal("MulInto with mismatched inner dims must error")
	}
	if err := MulBTInto(New(2, 4), a, b); err == nil {
		t.Fatal("MulBTInto with mismatched widths must error")
	}
	if err := MulTInto(New(3, 5), a, b); err == nil {
		t.Fatal("MulTInto with mismatched rows must error")
	}
	ok := New(2, 3)
	if err := MulInto(ok, a, New(3, 3)); err != nil {
		t.Fatalf("conforming MulInto: %v", err)
	}
	if err := MulInto(New(1, 1), a, New(3, 3)); err == nil {
		t.Fatal("MulInto with wrong dst shape must error")
	}
}

func TestAddRowWiseAndSumColumns(t *testing.T) {
	m, _ := NewFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if err := m.AddRowWise([]float64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 33, 14, 25, 36}
	for i, v := range want {
		if m.Data[i] != v {
			t.Fatalf("AddRowWise elem %d: got %g want %g", i, m.Data[i], v)
		}
	}
	sums := make([]float64, 3)
	if err := m.SumColumnsInto(sums); err != nil {
		t.Fatal(err)
	}
	for j, want := range []float64{25, 47, 69} {
		if sums[j] != want {
			t.Fatalf("SumColumnsInto col %d: got %g want %g", j, sums[j], want)
		}
	}
	if err := m.AddRowWise([]float64{1}); err == nil {
		t.Fatal("AddRowWise with wrong width must error")
	}
	if err := m.SumColumnsInto([]float64{1}); err == nil {
		t.Fatal("SumColumnsInto with wrong width must error")
	}
}

func TestReshapeReusesBacking(t *testing.T) {
	m := New(4, 8)
	data := &m.Data[0]
	m.Reshape(2, 16)
	if m.Rows != 2 || m.Cols != 16 || len(m.Data) != 32 {
		t.Fatalf("Reshape shape: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	if &m.Data[0] != data {
		t.Fatal("Reshape within capacity must not reallocate")
	}
	m.Reshape(8, 8)
	if len(m.Data) != 64 {
		t.Fatal("growing Reshape must extend the buffer")
	}
}

// TestLogPDFRowsMatchesLogPDF pins batch scoring to the per-point scorer bit
// for bit: every row count around the four-row block (a lone row, a short
// tail, whole blocks, a tail after many) at every dimension the scorer
// serves, from the univariate fast path to one above the stack block. A
// NaN or ±Inf reading in any lane of a block must score as LogPDF scores it
// and leave the other lanes' scores untouched.
func TestLogPDFRowsMatchesLogPDF(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, dim := range []int{1, 2, 5, 18, lockstepDim + 1} {
		samples := make([][]float64, 200)
		for i := range samples {
			s := make([]float64, dim)
			for j := range s {
				s[j] = rng.NormFloat64()
			}
			samples[i] = s
		}
		g, err := FitGaussian(samples, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		// check scores xs in one call and compares every row with LogPDF.
		check := func(tag string, xs *Matrix) []float64 {
			t.Helper()
			got, err := g.LogPDFRows(xs)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != xs.Rows {
				t.Fatalf("dim %d %s: %d scores for %d rows", dim, tag, len(got), xs.Rows)
			}
			for i := 0; i < xs.Rows; i++ {
				want, err := g.LogPDF(xs.Row(i))
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("dim %d %s row %d: batch %g (%#x) vs per-point %g (%#x)",
						dim, tag, i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
				}
			}
			return got
		}
		for _, rows := range []int{1, 3, 4, 5, 64, 129} {
			xs, err := NewFromRows(samples[:rows])
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%d rows", rows), xs)
		}
		for _, rows := range []int{5, 8} {
			clean, err := NewFromRows(samples[:rows])
			if err != nil {
				t.Fatal(err)
			}
			base := check(fmt.Sprintf("%d clean rows", rows), clean)
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				for p := 0; p < rows; p++ {
					xs := clean.Clone()
					xs.Set(p, dim/2, bad)
					tag := fmt.Sprintf("%d rows, %g at row %d", rows, bad, p)
					got := check(tag, xs)
					for i := range got {
						if i != p && math.Float64bits(got[i]) != math.Float64bits(base[i]) {
							t.Fatalf("dim %d %s: row %d moved from %g to %g", dim, tag, i, base[i], got[i])
						}
					}
				}
			}
		}
		if _, err := g.LogPDFRows(New(2, dim+1)); err == nil {
			t.Fatal("LogPDFRows with wrong dim must error")
		}
	}
}

// TestLogPDFRowsIntoReusesDst: scoring into a dirty buffer that is long
// enough gives LogPDFRows' bits in that buffer's storage, with no
// allocation up to the widest Gaussian scored on the stack.
func TestLogPDFRowsIntoReusesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{1, 5, lockstepDim + 1} {
		xs := randMatrix(67, dim, rng)
		g, err := FitGaussian(matrixRows(randMatrix(200, dim, rng)), 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		want, err := g.LogPDFRows(xs)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, 3, 100)
		for i := range dst[:cap(dst)] {
			dst[:cap(dst)][i] = math.NaN()
		}
		got, err := g.LogPDFRowsInto(dst, xs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != xs.Rows || &got[0] != &dst[:1][0] {
			t.Fatalf("dim %d: %d scores, in dst's storage %v", dim, len(got), &got[0] == &dst[:1][0])
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("dim %d row %d: into dst %g, LogPDFRows %g", dim, i, got[i], want[i])
			}
		}
		allocs := testing.AllocsPerRun(20, func() { got, _ = g.LogPDFRowsInto(got, xs) })
		if dim <= lockstepDim && allocs != 0 {
			t.Fatalf("dim %d: LogPDFRowsInto allocates %.0f objects into a long enough dst", dim, allocs)
		}
	}
}

// matrixRows views m's rows as slices.
func matrixRows(m *Matrix) [][]float64 {
	rows := make([][]float64, m.Rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

// BenchmarkMulIntoBatch32 measures the AE-Cloud-shaped batch forward product
// (32×672 by 672×336) through the blocked kernel.
func BenchmarkMulIntoBatch32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, w := randMatrix(32, 672, rng), randMatrix(672, 336, rng)
	dst := New(32, 336)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MulInto(dst, x, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulBTIntoBatch32 measures the batch forward product Y = X·Wᵀ for
// an AE-Cloud-shaped layer at batch 32 — compare BenchmarkMulVecLoop32, the
// per-sample baseline doing identical arithmetic.
func BenchmarkMulBTIntoBatch32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, w := randMatrix(32, 672, rng), randMatrix(336, 672, rng)
	dst := New(32, 336)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MulBTInto(dst, x, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulVecLoop32 is the per-sample baseline for the same work: 32
// matrix-vector products, re-streaming the weight matrix per sample.
func BenchmarkMulVecLoop32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, w := randMatrix(32, 672, rng), randMatrix(336, 672, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 32; s++ {
			mulVec(w, x.Row(s))
		}
	}
}

// BenchmarkMulTBPTT measures MulTAddInto at the weight-gradient shapes of a
// fast multivariate BPTT pass, {m, k, n} for dst (m×n) += aᵀ (m×k) · b
// (k×n): the seq2seq tiers' dW += dzᵀ·x over 512 stacked (window, step) rows.
func BenchmarkMulTBPTT(b *testing.B) {
	for _, s := range [][3]int{{96, 512, 24}, {96, 512, 18}, {64, 512, 16}, {32, 512, 8}} {
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a, x := randMatrix(s[1], s[0], rng), randMatrix(s[1], s[2], rng)
			dst := New(s[0], s[2])
			b.ReportAllocs()
			for b.Loop() {
				if err := MulTAddInto(dst, a, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMulIntoBPTT measures MulInto at the BPTT recurrent shapes, {m, k,
// n}: dh (4×H) = dz (4×4H) · Wh (4H×H) for the 24- and 16-unit tiers.
func BenchmarkMulIntoBPTT(b *testing.B) {
	for _, s := range [][3]int{{4, 96, 24}, {4, 64, 16}} {
		b.Run(fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a, w := randMatrix(s[0], s[1], rng), randMatrix(s[1], s[2], rng)
			dst := New(s[0], s[2])
			b.ReportAllocs()
			for b.Loop() {
				if err := MulInto(dst, a, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
