package repro

import (
	"reflect"
	"testing"

	"repro/internal/nn"
)

// TestQuantTierPreservesTableII is the quantization acceptance pin:
// deploying the IoT and edge detectors with FP16- or int8-rounded weights
// leaves every Table II verdict unchanged relative to the unquantized FP64
// build.
//
// The three builds share identical training (quantization is a post-
// training deployment step), so any divergence would come from inference
// on the rounded weights — which Precompute exercises end-to-end for
// every test and policy sample, and whose verdicts then feed REINFORCE
// policy training. Equal SchemeRows therefore means equal detection
// verdicts everywhere, not just equal headline metrics. FP16 keeps ~11
// bits of mantissa and int8 rounds each weight within 2⁻⁷ relative error
// (power-of-two per-row scales); both stay far inside the detectors'
// decision margins on this workload, so the pin is exact equality, not a
// tolerated delta.
func TestQuantTierPreservesTableII(t *testing.T) {
	ref, err := Build(Univariate, WithFast(), WithQuantize(false))
	if err != nil {
		t.Fatal(err)
	}
	refRows, err := ref.SchemeRows()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []QuantMode{QuantFP16, QuantInt8} {
		t.Run(mode.String(), func(t *testing.T) {
			sys, err := Build(Univariate, WithFast(), WithQuantMode(mode))
			if err != nil {
				t.Fatal(err)
			}
			rows, err := sys.SchemeRows()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rows, refRows) {
				t.Fatalf("Table II rows diverge under %v quantization:\n  quantized: %+v\n  reference: %+v", mode, rows, refRows)
			}
		})
	}
}

// TestEffectiveQuantMode pins the back-compat default: options structs with
// the zero-valued QuantMode field (every pre-existing caller) quantize to
// the paper's FP16, and explicit modes pass through untouched.
func TestEffectiveQuantMode(t *testing.T) {
	if got := effectiveQuantMode(nn.QuantNone); got != nn.QuantFP16 {
		t.Fatalf("effectiveQuantMode(QuantNone) = %v, want QuantFP16", got)
	}
	if got := effectiveQuantMode(nn.QuantFP16); got != nn.QuantFP16 {
		t.Fatalf("effectiveQuantMode(QuantFP16) = %v, want QuantFP16", got)
	}
	if got := effectiveQuantMode(nn.QuantInt8); got != nn.QuantInt8 {
		t.Fatalf("effectiveQuantMode(QuantInt8) = %v, want QuantInt8", got)
	}
}
