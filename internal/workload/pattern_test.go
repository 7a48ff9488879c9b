package workload

import (
	"math"
	"testing"
	"time"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPatternShapes(t *testing.T) {
	d := Diurnal(time.Minute, 1, 5)
	if got := d.Intensity(0); !almost(got, 1) {
		t.Fatalf("diurnal at t=0: %g, want base 1", got)
	}
	if got := d.Intensity(30 * time.Second); !almost(got, 5) {
		t.Fatalf("diurnal at half period: %g, want peak 5", got)
	}
	if got := d.Intensity(time.Minute); !almost(got, 1) {
		t.Fatalf("diurnal after full period: %g, want base 1", got)
	}

	b := Burst(10*time.Second, 0.2, 1, 8)
	if got := b.Intensity(time.Second); !almost(got, 8) {
		t.Fatalf("burst inside duty: %g, want peak 8", got)
	}
	if got := b.Intensity(5 * time.Second); !almost(got, 1) {
		t.Fatalf("burst outside duty: %g, want base 1", got)
	}

	r := Ramp(10*time.Second, 0, 4)
	if got := r.Intensity(5 * time.Second); !almost(got, 2) {
		t.Fatalf("ramp midpoint: %g, want 2", got)
	}
	if got := r.Intensity(time.Hour); !almost(got, 4) {
		t.Fatalf("ramp holds target: %g, want 4", got)
	}

	s := Spike(5*time.Second, time.Second, 1, 10)
	if got := s.Intensity(5500 * time.Millisecond); !almost(got, 10) {
		t.Fatalf("inside spike: %g, want 10", got)
	}
	if got := s.Intensity(7 * time.Second); !almost(got, 1) {
		t.Fatalf("outside spike: %g, want base 1", got)
	}

	sum := Sum(Uniform(1), Uniform(2))
	if got := sum.Intensity(0); !almost(got, 3) {
		t.Fatalf("sum: %g, want 3", got)
	}
	for _, p := range []Pattern{d, b, r, s, sum, Uniform(1)} {
		if p.Name() == "" {
			t.Fatalf("%T has empty name", p)
		}
	}
}

func TestGap(t *testing.T) {
	if got := Gap(nil, 0, time.Second); got != 0 {
		t.Fatalf("nil pattern gap = %v, want 0", got)
	}
	if got := Gap(Uniform(2), 0, 0); got != 0 {
		t.Fatalf("zero base gap = %v, want 0", got)
	}
	if got := Gap(Uniform(2), 0, time.Second); got != 500*time.Millisecond {
		t.Fatalf("gap at intensity 2 = %v, want 500ms", got)
	}
	// Non-positive intensity clamps to MinIntensity: a lull slows the
	// device down but cannot stall it forever.
	if got, max := Gap(Uniform(0), 0, time.Second), time.Duration(float64(time.Second)/MinIntensity); got != max {
		t.Fatalf("clamped gap = %v, want %v", got, max)
	}
}
