package cluster

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/features"
	"repro/internal/hec"
	"repro/internal/seq2seq"
)

// countedModel is a seq2seq detector that counts the contexts asked of it as
// an extractor. A pointer to one is both a device's detector and its
// extractor, which is what makes the device encode a window once.
type countedModel struct {
	*seq2seq.Model
	contexts atomic.Int64
}

func (m *countedModel) Context(frames [][]float64) ([]float64, error) {
	m.contexts.Add(1)
	return m.Model.Context(frames)
}

// wrapped hides an extractor's identity.
type wrapped struct{ features.Extractor }

// thirdsPolicy sends a context to IoT, the edge or the cloud by which third
// of the test windows' first state component it falls in.
type thirdsPolicy struct{ cut1, cut2 float64 }

func (p thirdsPolicy) Probs(z []float64) ([]float64, error) {
	switch {
	case z[0] < p.cut1:
		return []float64{0.6, 0.3, 0.1}, nil
	case z[0] < p.cut2:
		return []float64{0.1, 0.6, 0.3}, nil
	default:
		return []float64{0.3, 0.1, 0.6}, nil
	}
}

// handoffFixture trains a small IoT model and builds windows plus a policy
// that splits them across the three layers.
func handoffFixture(t *testing.T) (*countedModel, [][][]float64, thirdsPolicy) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	m, err := seq2seq.New(seq2seq.TierIoT, seq2seq.Sizing{InSize: 3, BaseHidden: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	sine := func(spike float64) [][]float64 {
		w := make([][]float64, 12)
		phase := rng.Float64()
		for i := range w {
			w[i] = make([]float64, 3)
			for j := range w[i] {
				w[i][j] = math.Sin(2*math.Pi*(float64(i)/12+phase)) + 0.05*rng.NormFloat64() + spike
			}
		}
		return w
	}
	train := make([][][]float64, 8)
	for i := range train {
		train[i] = sine(0)
	}
	cfg := seq2seq.DefaultTrainConfig()
	cfg.Epochs = 2
	if _, err := m.Fit(train, cfg, rng); err != nil {
		t.Fatal(err)
	}
	windows := make([][][]float64, 12)
	firsts := make([]float64, len(windows))
	for i := range windows {
		windows[i] = sine(float64(i%4) * 0.7)
		z, err := m.EncodedState(windows[i])
		if err != nil {
			t.Fatal(err)
		}
		firsts[i] = z[0]
	}
	sort.Float64s(firsts)
	return &countedModel{Model: m}, windows, thirdsPolicy{cut1: firsts[4], cut2: firsts[8]}
}

func handoffDevice(local *countedModel, ext features.Extractor, p thirdsPolicy) *Device {
	return &Device{
		Local:       local,
		LocalExecMs: func(int) float64 { return 3 },
		Remotes: [hec.NumLayers]Remote{nil,
			&stubBatchRemote{stubRemote: stubRemote{verdict: confident(true), execMs: 5, netMs: 8}},
			&stubBatchRemote{stubRemote: stubRemote{verdict: unconfident(), execMs: 1, netMs: 40}}},
		Policy:           p,
		Extractor:        ext,
		PolicyOverheadMs: 0.5,
	}
}

// TestHandoffSplitMatchesTwoPass runs the policy-driven schemes over a batch
// the policy splits across all three layers, so the one-pass detector keeps
// a proper subset of it, and checks every outcome against the two-pass path
// of the same device with its extractor wrapped — batched and one window at
// a time. The one pass must not call the extractor at all.
func TestHandoffSplitMatchesTwoPass(t *testing.T) {
	m, windows, p := handoffFixture(t)
	one := handoffDevice(m, m, p)
	two := handoffDevice(m, wrapped{m}, p)
	ctx := context.Background()
	for _, s := range []Scheme{SchemeAdaptive, SchemePathological} {
		before := m.contexts.Load()
		got, err := one.RunBatch(ctx, s, windows)
		if err != nil {
			t.Fatalf("%v one pass: %v", s, err)
		}
		singles := make([]Outcome, len(windows))
		for i, w := range windows {
			if singles[i], err = one.Run(ctx, s, w); err != nil {
				t.Fatalf("%v one pass, window %d: %v", s, i, err)
			}
		}
		if n := m.contexts.Load() - before; n != 0 {
			t.Fatalf("%v: the one pass asked the extractor for %d contexts", s, n)
		}
		want, err := two.RunBatch(ctx, s, windows)
		if err != nil {
			t.Fatalf("%v two passes: %v", s, err)
		}
		if n := m.contexts.Load() - before; n != int64(len(windows)) {
			t.Fatalf("%v: the two-pass path asked for %d contexts, want %d", s, n, len(windows))
		}
		perLayer := map[hec.Layer]int{}
		for i := range windows {
			perLayer[got[i].Layer]++
			if got[i] != want[i] {
				t.Fatalf("%v window %d: one pass %+v, two passes %+v", s, i, got[i], want[i])
			}
			single, err := two.Run(ctx, s, windows[i])
			if err != nil {
				t.Fatal(err)
			}
			if singles[i] != single {
				t.Fatalf("%v window %d alone: one pass %+v, two passes %+v", s, i, singles[i], single)
			}
		}
		if len(perLayer) != hec.NumLayers {
			t.Fatalf("%v: windows per layer %v; the test lost its split", s, perLayer)
		}
		// The pooled handoff state and the model's scratch under concurrent
		// calls on one device (run it with -race).
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 5; rep++ {
					outs, err := one.RunBatch(ctx, s, windows)
					if err != nil {
						t.Error(err)
						return
					}
					for i := range outs {
						if outs[i] != want[i] {
							t.Errorf("%v concurrent window %d: %+v, want %+v", s, i, outs[i], want[i])
						}
					}
					i := (g + rep) % len(windows)
					if out, err := one.Run(ctx, s, windows[i]); err != nil || out != singles[i] {
						t.Errorf("%v concurrent lone window %d: %+v (%v), want %+v", s, i, out, err, singles[i])
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestSwapLocalTakesTheTwoPassPath checks a device stops handing the
// encoder state over once SwapLocal replaces its detector: the extractor is
// no longer the detector, so it is asked for every context again, and the
// outcomes do not change. Clearing the override restores the one pass.
func TestSwapLocalTakesTheTwoPassPath(t *testing.T) {
	m, windows, p := handoffFixture(t)
	dev := handoffDevice(m, m, p)
	ctx := context.Background()
	before, err := dev.RunBatch(ctx, SchemeAdaptive, windows)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.contexts.Load(); n != 0 {
		t.Fatalf("before the swap: %d contexts asked, want 0", n)
	}
	dev.SwapLocal(m.Model, func(int) float64 { return 3 })
	after, err := dev.RunBatch(ctx, SchemeAdaptive, windows)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.contexts.Load(); n != int64(len(windows)) {
		t.Fatalf("after the swap: %d contexts asked, want %d", n, len(windows))
	}
	for i := range windows {
		if before[i] != after[i] {
			t.Fatalf("window %d: %+v before the swap, %+v after", i, before[i], after[i])
		}
	}
	dev.SwapLocal(nil, nil)
	if _, err := dev.Run(ctx, SchemeAdaptive, windows[0]); err != nil {
		t.Fatal(err)
	}
	if n := m.contexts.Load(); n != int64(len(windows)) {
		t.Fatalf("after clearing the swap: %d contexts asked, want %d", n, len(windows))
	}
}
