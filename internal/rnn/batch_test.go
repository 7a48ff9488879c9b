package rnn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
)

func randWindows(b, t, d int, rng *rand.Rand) [][][]float64 {
	out := make([][][]float64, b)
	for w := range out {
		out[w] = make([][]float64, t)
		for s := range out[w] {
			f := make([]float64, d)
			for j := range f {
				f[j] = rng.NormFloat64()
			}
			out[w][s] = f
		}
	}
	return out
}

// refReconstruct is the scalar reference for autoregressive inference,
// built from the scalar trainer's kernels (refEncode, refStep, mulVec): what
// the deleted per-window Reconstruct computed.
func refReconstruct(m *Seq2Seq, xs [][]float64) [][]float64 {
	h, c, _ := refEncode(m, xs)
	out := make([][]float64, len(xs))
	prev := make([]float64, m.InSize) // zero start token
	for s := range xs {
		h, c, _, _ = refStep(m.Decoder, prev, h, c)
		y := mulVec(m.Wy, h)
		for i := range y {
			y[i] += m.By[i]
		}
		out[s], prev = y, y
	}
	return out
}

func sameBits(t *testing.T, tag string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d steps, want %d", tag, len(got), len(want))
	}
	for s := range want {
		for j := range want[s] {
			if math.Float64bits(got[s][j]) != math.Float64bits(want[s][j]) {
				t.Fatalf("%s step %d dim %d: %g vs %g", tag, s, j, got[s][j], want[s][j])
			}
		}
	}
}

// TestReconstructBatchMatchesPerWindow pins batch-size invariance of the one
// recurrent inference path, for both encoder variants and on full-precision,
// fp16- and int8-rounded weights: row r of a batch of 16 is bit-identical to
// the same window as a batch of 1 (Reconstruct), and both to the scalar
// reference assembled from the scalar trainer.
func TestReconstructBatchMatchesPerWindow(t *testing.T) {
	for _, bidi := range []bool{false, true} {
		name := "lstm"
		if bidi {
			name = "bilstm"
		}
		t.Run(name, func(t *testing.T) {
			for _, mode := range []nn.QuantMode{nn.QuantNone, nn.QuantFP16, nn.QuantInt8} {
				rng := rand.New(rand.NewSource(1))
				m, err := NewSeq2Seq(Config{InSize: 6, HiddenSize: 9, Bidirectional: bidi, DropRate: 0.3}, rng)
				if err != nil {
					t.Fatal(err)
				}
				nn.QuantizeParams(m.Params(), mode)
				if again := nn.QuantizeParams(m.Params(), mode); again != 0 {
					t.Fatalf("%v: second quantization moved weights by %g", mode, again)
				}
				windows := randWindows(16, 11, 6, rng)
				got, err := m.ReconstructBatch(windows)
				if err != nil {
					t.Fatal(err)
				}
				for w, xs := range windows {
					one, err := m.Reconstruct(xs)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, fmt.Sprintf("%v window %d: batch of 16 vs batch of 1", mode, w), got[w], one)
					sameBits(t, fmt.Sprintf("%v window %d: batch vs scalar reference", mode, w), got[w], refReconstruct(m, xs))
				}
			}
		})
	}
}

// TestEncodedStateIsBatchedEncode pins the policy's context pass to the
// scalar reference encoder bit for bit, and its steady-state allocation count
// to the returned vector: the scalar walk it replaced cost six allocations
// per timestep.
func TestEncodedStateIsBatchedEncode(t *testing.T) {
	for _, bidi := range []bool{false, true} {
		rng := rand.New(rand.NewSource(4))
		m, err := NewSeq2Seq(Config{InSize: 18, HiddenSize: 16, Bidirectional: bidi}, rng)
		if err != nil {
			t.Fatal(err)
		}
		xs := randWindows(1, 128, 18, rng)[0]
		got, err := m.EncodedState(xs)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := refEncode(m, xs)
		sameBits(t, fmt.Sprintf("bidirectional=%v", bidi), [][]float64{got}, [][]float64{want})
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := m.EncodedState(xs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Fatalf("bidirectional=%v: EncodedState allocates %.0f objects/call in steady state, want ≤ 8", bidi, allocs)
		}
	}
}

// TestInferenceAllocations pins steady-state inference to what the caller
// keeps: EncodedState's returned vector, and ReconstructBatch's three result
// slabs at batch 1 and at batch 32 — where a block of the hoisted input
// projection large enough to fan out over the worker pool would add
// hundreds. Allocations are counted at the process's own GOMAXPROCS
// (testing.AllocsPerRun drops it to 1, where nothing fans out). Everything
// else comes from the pooled scratch, which the race detector's sync.Pool
// drops at random, so the exact pins run without it.
func TestInferenceAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, bidi := range []bool{false, true} {
		rng := rand.New(rand.NewSource(5))
		m, err := NewSeq2Seq(Config{InSize: 18, HiddenSize: 24, Bidirectional: bidi}, rng)
		if err != nil {
			t.Fatal(err)
		}
		pin := func(tag string, want uint64, call func() error) {
			t.Helper()
			if err := call(); err != nil { // warm the pool and the panel caches
				t.Fatal(err)
			}
			// The best of several rounds: a goroutine that moves to another P
			// misses its pooled scratch now and then. The collector is off
			// while counting: each cycle empties the sync.Pools, and the
			// per-P arrays they rebuild on the next Get would count against
			// the call — at batch 32 a round spans a cycle or more.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			const rounds, runs = 5, 5
			best := uint64(math.MaxUint64)
			for range rounds {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < runs; i++ {
					if err := call(); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				best = min(best, (after.Mallocs-before.Mallocs)/runs)
			}
			if best != want {
				t.Fatalf("bidirectional=%v %s: %d allocations per call at GOMAXPROCS=%d, want %d",
					bidi, tag, best, runtime.GOMAXPROCS(0), want)
			}
		}
		xs := randWindows(1, 128, 18, rng)[0]
		pin("EncodedState", 1, func() error { _, err := m.EncodedState(xs); return err })
		for _, b := range []int{1, 32} {
			windows := randWindows(b, 128, 18, rng)
			pin(fmt.Sprintf("ReconstructBatch of %d", b), 3, func() error { _, err := m.ReconstructBatch(windows); return err })
		}
	}
}

// TestStepBatchMatchesStep pins one batched LSTM step to the scalar
// reference step from arbitrary (non-zero) states.
func TestStepBatchMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLSTM(4, 5, rng)
	const B = 6
	var st StepState
	st.Reset(B, 5)
	for i := range st.H.Data {
		st.H.Data[i] = rng.NormFloat64()
		st.C.Data[i] = rng.NormFloat64()
	}
	h0 := st.H.Clone()
	c0 := st.C.Clone()
	x := randWindows(1, B, 4, rng)[0] // B frames of width 4
	xm, err := mat.NewFromRows(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.StepBatch(&st, xm); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < B; r++ {
		h, c, _, _ := refStep(l, x[r], h0.Row(r), c0.Row(r))
		for i := range h {
			if st.H.At(r, i) != h[i] || st.C.At(r, i) != c[i] {
				t.Fatalf("row %d unit %d: batch (%g,%g) vs step (%g,%g)",
					r, i, st.H.At(r, i), st.C.At(r, i), h[i], c[i])
			}
		}
	}
}

func TestReconstructBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := NewSeq2Seq(Config{InSize: 3, HiddenSize: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := m.ReconstructBatch(nil); err != nil || out != nil {
		t.Fatalf("empty batch: (%v, %v)", out, err)
	}
	if _, err := m.ReconstructBatch([][][]float64{{}}); err == nil {
		t.Fatal("empty window must error")
	}
	ragged := randWindows(2, 5, 3, rng)
	ragged[1] = ragged[1][:4]
	if _, err := m.ReconstructBatch(ragged); err == nil {
		t.Fatal("ragged batch must error")
	}
	bad := randWindows(1, 5, 3, rng)
	bad[0][2] = []float64{1}
	if _, err := m.ReconstructBatch(bad); err == nil {
		t.Fatal("wrong frame width must error")
	}
}

// BenchmarkReconstructBatch16 and BenchmarkReconstructLoop16 compare one
// batch of 16 MHEALTH-shaped windows (128×18) against 16 batches of 1
// through the same engine.
func BenchmarkReconstructBatch16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, err := NewSeq2Seq(Config{InSize: 18, HiddenSize: 16}, rng)
	if err != nil {
		b.Fatal(err)
	}
	windows := randWindows(16, 128, 18, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ReconstructBatch(windows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructLoop16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, err := NewSeq2Seq(Config{InSize: 18, HiddenSize: 16}, rng)
	if err != nil {
		b.Fatal(err)
	}
	windows := randWindows(16, 128, 18, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range windows {
			if _, err := m.Reconstruct(w); err != nil {
				b.Fatal(err)
			}
		}
	}
}
