package repro

import (
	"context"
	"math"
	"testing"

	"repro/internal/features"
	"repro/internal/hec"
)

// wrappedExtractor hides the extractor's identity, which sends a device down
// the two-pass path: context first, detection after.
type wrappedExtractor struct{ features.Extractor }

// TestPrecomputeHandoffMatchesTwoPass checks Precompute's one pass over the
// multivariate IoT model, whose IoT detections hand out the policy contexts:
// contexts and outcomes must be the bits of the two-pass path that asks a
// wrapped extractor for each context, at the build's batch size and one
// window at a time.
func TestPrecomputeHandoffMatchesTwoPass(t *testing.T) {
	sys := fastMultiSystem(t)
	ctx := context.Background()
	want, err := hec.PrecomputeWith(ctx, sys.Deployment, wrappedExtractor{sys.Extractor}, sys.TestSamples, hec.PrecomputeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []hec.PrecomputeOptions{{Workers: 1}, {Workers: 2, BatchSize: 1}} {
		got, err := hec.PrecomputeWith(ctx, sys.Deployment, sys.Extractor, sys.TestSamples, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sys.TestSamples {
			if got.Outcomes[i] != want.Outcomes[i] {
				t.Fatalf("%+v sample %d: outcomes %+v, two passes %+v", opt, i, got.Outcomes[i], want.Outcomes[i])
			}
			if len(got.Contexts[i]) != len(want.Contexts[i]) {
				t.Fatalf("%+v sample %d: context width %d, want %d", opt, i, len(got.Contexts[i]), len(want.Contexts[i]))
			}
			for j, v := range got.Contexts[i] {
				if math.Float64bits(v) != math.Float64bits(want.Contexts[i][j]) {
					t.Fatalf("%+v sample %d: context[%d] = %g, two passes %g", opt, i, j, v, want.Contexts[i][j])
				}
			}
		}
	}
}

// handoffDetectAllocs is what a warm multivariate adaptive Session.Detect of
// a window the policy keeps at the IoT layer allocates on the one-pass path:
// the verdicts (seq2seq) and the action distribution the policy network
// returns — its forward pass runs on pooled scratch. The device's handoff
// state, the encoder and decoder scratch, the reconstruction and the
// scores are pooled too. The two-pass path adds the context vector
// EncodedState returns.
const handoffDetectAllocs = 2

// TestSessionAdaptiveMultivariateAllocs pins the allocations of the one-pass
// adaptive Detect exactly, and checks that the two-pass path the device
// would silently fall back to costs more — so a fallback fails here.
func TestSessionAdaptiveMultivariateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	sys := fastMultiSystem(t)
	res, err := sys.ResultPanel(SchemeAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	w := -1
	for i, l := range res.Layers {
		if l == LayerIoT {
			w = i
			break
		}
	}
	if w < 0 {
		t.Fatal("no test window stays at the IoT layer")
	}
	frames := sys.TestSamples[w].Frames
	twoPass := *sys
	twoPass.Extractor = wrappedExtractor{sys.Extractor}
	ctx := context.Background()
	allocs := func(s *System) float64 {
		sess, err := s.Open(SchemeAdaptive)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		return testing.AllocsPerRun(20, func() {
			if _, err := sess.Detect(ctx, frames); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, two := allocs(sys), allocs(&twoPass)
	t.Logf("adaptive Detect: %.0f allocations in one pass, %.0f in two", one, two)
	if one != handoffDetectAllocs {
		t.Fatalf("one-pass adaptive Detect allocates %.0f objects, want %d", one, handoffDetectAllocs)
	}
	if two <= one {
		t.Fatalf("the two-pass path allocates %.0f objects, no more than the one-pass %.0f: the pin cannot catch a fallback", two, one)
	}
}
