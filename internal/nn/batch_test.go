package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// testNet builds a small AE-shaped network.
func testNet(t *testing.T, rng *rand.Rand) *Sequential {
	t.Helper()
	return NewSequential(
		NewDense(12, 8, rng),
		NewActivation(ActReLU),
		NewDense(8, 4, rng),
		NewActivation(ActTanh),
		NewDense(4, 12, rng),
	)
}

func randBatch(b, n int, rng *rand.Rand) *mat.Matrix {
	x := mat.New(b, n)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// TestForwardBatchMatchesPerSample pins the core equivalence claim of the
// batched engine: row i of ForwardBatch equals the scalar reference on row
// i, bit for bit, because the batch kernels accumulate in the per-sample
// order. Sequential.Forward, the batch-of-one wrapper, must match it in
// both modes.
func TestForwardBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := testNet(t, rng)
	x := randBatch(17, 12, rng)
	y, err := net.ForwardBatch(x)
	if err != nil {
		t.Fatal(err)
	}
	// Copy: the returned matrix is scratch and Forward below runs through
	// the same layers.
	got := y.Clone()
	for i := 0; i < x.Rows; i++ {
		acts := refForward(net, x.Row(i))
		want := acts[len(acts)-1]
		for _, train := range []bool{false, true} {
			row, err := net.Forward(x.Row(i), train)
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range want {
				if math.Float64bits(got.At(i, j)) != math.Float64bits(v) || math.Float64bits(row[j]) != math.Float64bits(v) {
					t.Fatalf("row %d col %d: batch %g, Forward(train=%v) %g, reference %g", i, j, got.At(i, j), train, row[j], v)
				}
			}
		}
	}
}

// TestBackwardBatchMatchesPerSample checks that one batched backward pass
// accumulates exactly the sum of per-sample gradients (in batch order).
func TestBackwardBatchMatchesPerSample(t *testing.T) {
	rngA := rand.New(rand.NewSource(2))
	rngB := rand.New(rand.NewSource(2))
	netA := testNet(t, rngA) // per-sample
	netB := testNet(t, rngB) // batched; identical weights by construction

	rng := rand.New(rand.NewSource(3))
	x := randBatch(9, 12, rng)
	target := randBatch(9, 12, rng)

	// Per-sample accumulation through the reference, batch-averaged
	// gradient scale.
	netA.ZeroGrads()
	B := float64(x.Rows)
	for i := 0; i < x.Rows; i++ {
		acts := refForward(netA, x.Row(i))
		_, g, err := MSELoss(acts[len(acts)-1], target.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		for j := range g {
			g[j] /= B
		}
		refBackward(netA, acts, g)
	}

	netB.ZeroGrads()
	out, err := netB.ForwardBatch(x)
	if err != nil {
		t.Fatal(err)
	}
	grad := mat.New(0, 0)
	if _, err := MSELossBatch(out, target, grad); err != nil {
		t.Fatal(err)
	}
	if _, err := netB.BackwardBatch(grad); err != nil {
		t.Fatal(err)
	}

	pa, pb := netA.Params(), netB.Params()
	for pi := range pa {
		if !mat.Equal(pa[pi].Grad, pb[pi].Grad, 1e-9) {
			t.Fatalf("param %s: batched gradient diverges from per-sample accumulation", pa[pi].Name)
		}
	}
}

// TestMSELossBatchSingletonMatchesMSELoss pins the batch-of-1 degeneracy.
func TestMSELossBatchSingletonMatchesMSELoss(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pred := randBatch(1, 7, rng)
	target := randBatch(1, 7, rng)
	wantLoss, wantGrad, err := MSELoss(pred.Row(0), target.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	grad := mat.New(0, 0)
	gotLoss, err := MSELossBatch(pred, target, grad)
	if err != nil {
		t.Fatal(err)
	}
	if gotLoss != wantLoss {
		t.Fatalf("loss: batch %g vs per-sample %g", gotLoss, wantLoss)
	}
	for i, v := range wantGrad {
		if grad.Data[i] != v {
			t.Fatalf("grad %d: batch %g vs per-sample %g", i, grad.Data[i], v)
		}
	}
	if _, err := MSELossBatch(pred, randBatch(2, 7, rng), grad); err == nil {
		t.Fatal("shape mismatch must error")
	}
	if _, err := MSELossBatch(mat.New(0, 0), mat.New(0, 0), grad); err == nil {
		t.Fatal("empty batch must error")
	}
}

// TestBatchGradientCheck runs a numerical gradient check directly against
// the batched backward pass.
func TestBatchGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewSequential(
		NewDense(4, 6, rng),
		NewActivation(ActSigmoid),
		NewDense(6, 3, rng),
	)
	x := randBatch(5, 4, rng)
	target := randBatch(5, 3, rng)
	grad := mat.New(0, 0)

	var ws BatchScratch
	lossAt := func() float64 {
		out, err := net.InferBatch(&ws, x)
		if err != nil {
			t.Fatal(err)
		}
		l, err := MSELossBatch(out, target, grad)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	net.ZeroGrads()
	out, err := net.ForwardBatch(x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MSELossBatch(out, target, grad); err != nil {
		t.Fatal(err)
	}
	if _, err := net.BackwardBatch(grad); err != nil {
		t.Fatal(err)
	}

	const eps = 1e-6
	for _, p := range net.Params() {
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
			numeric := (lp - lm) / (2 * eps)
			analytic := p.Grad.Data[i]
			if d := numeric - analytic; d > 1e-5 || d < -1e-5 {
				t.Fatalf("param %s elem %d: numeric %g vs analytic %g", p.Name, i, numeric, analytic)
			}
		}
	}
}

// TestBatchForwardAllocationFree is the allocation assertion from the batch
// refactor: after warm-up, both batch forward paths must not allocate — the
// stateless inference path reuses the caller's scratch, the stateful
// training path reuses layer scratch — while the batch size is stable. The
// shapes stay below the kernels' parallel fan-out threshold so the
// measurement sees the pure sequential path.
func TestBatchForwardAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewSequential(
		NewDense(32, 16, rng),
		NewActivation(ActReLU),
		NewDense(16, 32, rng),
	)
	x := randBatch(8, 32, rng)
	var ws BatchScratch
	if _, err := net.InferBatch(&ws, x); err != nil { // warm scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := net.InferBatch(&ws, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state InferBatch allocates %.1f times per run, want 0", allocs)
	}

	if _, err := net.ForwardBatch(x); err != nil { // warm layer scratch
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := net.ForwardBatch(x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state training ForwardBatch allocates %.1f times per run, want 0", allocs)
	}
}

// TestInferBatchMatchesForwardBatch pins the stateless inference path to the
// stateful one, and exercises concurrent shared-model inference (meaningful
// under -race): every goroutine brings its own scratch and must read the
// same results.
func TestInferBatchMatchesForwardBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := testNet(t, rng)
	x := randBatch(11, 12, rng)
	stateful, err := net.ForwardBatch(x)
	if err != nil {
		t.Fatal(err)
	}
	want := stateful.Clone()

	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			var ws BatchScratch
			for rep := 0; rep < 20; rep++ {
				y, err := net.InferBatch(&ws, x)
				if err != nil {
					done <- err
					return
				}
				if !mat.Equal(want, y, 0) {
					done <- fmt.Errorf("concurrent InferBatch diverged")
					return
				}
				// The per-sample inference path must also be shareable.
				row, err := net.Forward(x.Row(rep%x.Rows), false)
				if err != nil {
					done <- err
					return
				}
				for j, v := range row {
					if want.At(rep%x.Rows, j) != v {
						done <- fmt.Errorf("concurrent per-sample forward diverged")
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuantizeFP16UnderBatchPath checks the paper's FP16 deployment step
// against the batched engine: quantised weights round-trip exactly (FP16 is
// exactly representable in float64), and the batch forward pass through a
// quantised network matches the scalar reference on the same weights.
func TestQuantizeFP16UnderBatchPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := testNet(t, rng)
	worst := QuantizeParams(net.Params(), QuantFP16)
	if worst <= 0 || worst > 1e-2 {
		t.Fatalf("unexpected worst-case FP16 rounding error %g", worst)
	}
	// Idempotence: quantising again must change nothing.
	if again := QuantizeParams(net.Params(), QuantFP16); again != 0 {
		t.Fatalf("second FP16 quantisation moved weights by %g, want 0", again)
	}
	x := randBatch(13, 12, rng)
	var ws BatchScratch
	got, err := net.InferBatch(&ws, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows; i++ {
		acts := refForward(net, x.Row(i))
		for j, v := range acts[len(acts)-1] {
			if got.At(i, j) != v {
				t.Fatalf("quantised net row %d col %d: batch %g vs per-sample %g", i, j, got.At(i, j), v)
			}
		}
	}
}

// TestBackwardBatchBeforeForwardErrors covers the batch-path state guards.
func TestBackwardBatchBeforeForwardErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := mat.New(1, 2)
	if _, err := NewDense(2, 2, rng).BackwardBatch(g); err == nil {
		t.Fatal("Dense.BackwardBatch before forward must error")
	}
	if _, err := NewActivation(ActReLU).BackwardBatch(g); err == nil {
		t.Fatal("Activation.BackwardBatch before forward must error")
	}
	d := NewDense(2, 3, rng)
	if _, err := d.ForwardBatch(mat.New(1, 5)); err == nil {
		t.Fatal("Dense.ForwardBatch with wrong width must error")
	}
	if _, err := d.ForwardBatch(mat.New(4, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BackwardBatch(mat.New(3, 3)); err == nil {
		t.Fatal("Dense.BackwardBatch with wrong batch must error")
	}
}

// BenchmarkSequentialForwardBatch32 and BenchmarkSequentialForwardLoop32
// compare one batched inference pass against 32 per-sample passes through an
// AE-Cloud-shaped network.
func BenchmarkSequentialForwardBatch32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := aeCloudShaped(rng)
	x := mat.New(32, 672)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	var ws BatchScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.InferBatch(&ws, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialForwardLoop32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := aeCloudShaped(rng)
	x := mat.New(32, 672)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 32; s++ {
			if _, err := net.Forward(x.Row(s), false); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func aeCloudShaped(rng *rand.Rand) *Sequential {
	widths := []int{672, 336, 112, 32, 112, 336, 672}
	var layers []Layer
	for i := 0; i+1 < len(widths); i++ {
		layers = append(layers, NewDense(widths[i], widths[i+1], rng))
		if i+2 < len(widths) {
			layers = append(layers, NewActivation(ActReLU))
		}
	}
	return NewSequential(layers...)
}

// TestForwardBatchLoneRowDoesNotPack pins the per-sample training forward:
// after an optimiser step has invalidated W's panels, a one-row
// ForwardBatch multiplies W directly — it leaves the panel cache empty and
// matches the packed ApplyBatch bit for bit — while a two-row batch still
// packs. The 45 outputs cover the 1×32, 1×8 and tail kernels of the packed
// path.
func TestForwardBatchLoneRowDoesNotPack(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := NewDense(37, 45, rng)
	cache := d.Params()[0].Cache
	x := randBatch(2, 37, rng)
	if _, err := d.ForwardBatch(x); err != nil {
		t.Fatal(err)
	}
	if cache.Cached() == nil {
		t.Fatal("two-row ForwardBatch did not pack W")
	}
	if _, err := d.BackwardBatch(randBatch(2, 45, rng)); err != nil {
		t.Fatal(err)
	}
	if err := NewAdam(1e-2).Step(d.Params()); err != nil {
		t.Fatal(err)
	}
	if cache.Cached() != nil {
		t.Fatal("optimiser step left W's panels in the cache")
	}
	row := &mat.Matrix{Rows: 1, Cols: 37, Data: x.Data[:37]}
	y, err := d.ForwardBatch(row)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Cached() != nil {
		t.Fatal("one-row ForwardBatch packed W")
	}
	got := y.Clone()
	var want mat.Matrix
	if err := d.ApplyBatch(&want, row); err != nil {
		t.Fatal(err)
	}
	if cache.Cached() == nil {
		t.Fatal("ApplyBatch did not pack W")
	}
	for j := range want.Data {
		if math.Float64bits(got.Data[j]) != math.Float64bits(want.Data[j]) {
			t.Fatalf("output %d: lone-row forward %v, packed %v", j, got.Data[j], want.Data[j])
		}
	}
	cache.Invalidate()
	if _, err := d.ForwardBatch(x); err != nil {
		t.Fatal(err)
	}
	if cache.Cached() == nil {
		t.Fatal("two-row ForwardBatch after a step did not pack W")
	}
}
