package nn

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// TestInferBatchZeroAllocSteadyState pins the steady-state allocation count
// of Sequential.InferBatch at zero: after one warm-up call has grown the
// caller's BatchScratch and packed every weight matrix into its panel cache,
// subsequent calls must not allocate — not in the kernels, not in the cache
// lookup, not in the activation layers. This is the contract that lets the
// serving plane run batched inference per-request without GC pressure. The
// fp16 and int8 cases hold it for quantized models too: rounded weights run
// through the same panels and kernels, not a path of their own.
func TestInferBatchZeroAllocSteadyState(t *testing.T) {
	for _, quant := range []struct {
		name string
		mode QuantMode
	}{
		{"f64", QuantNone},
		{"fp16", QuantFP16},
		{"int8", QuantInt8},
	} {
		t.Run(quant.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			net := NewSequential(
				NewDense(24, 12, rng),
				NewActivation(ActSigmoid),
				NewDense(12, 24, rng),
				NewActivation(ActLinear),
			)
			if quant.mode != QuantNone {
				QuantizeParams(net.Params(), quant.mode)
			}

			// Batch 8 stays below the fan-out threshold, so inference runs
			// on the calling goroutine; the parallel path necessarily
			// allocates its coordination state.
			x := mat.New(8, 24)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			var ws BatchScratch
			if _, err := net.InferBatch(&ws, x); err != nil {
				t.Fatalf("warm-up InferBatch: %v", err)
			}

			allocs := testing.AllocsPerRun(50, func() {
				if _, err := net.InferBatch(&ws, x); err != nil {
					t.Fatalf("InferBatch: %v", err)
				}
			})
			if allocs != 0 {
				t.Fatalf("InferBatch allocates %.1f objects/call in steady state, want 0", allocs)
			}
		})
	}
}
