package features

import (
	"testing"

	"repro/internal/dataset"
)

func TestUnivariateContext(t *testing.T) {
	week := make([]float64, dataset.ReadingsPerWeek)
	// Day 0 is the ramp 0..95, later days constant 5.
	for i := 0; i < dataset.ReadingsPerDay; i++ {
		week[i] = float64(i)
	}
	for i := dataset.ReadingsPerDay; i < len(week); i++ {
		week[i] = 5
	}
	ctx, err := Univariate(week)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctx) != UnivariateDim {
		t.Fatalf("context width %d, want %d", len(ctx), UnivariateDim)
	}
	// Day 0: min 0, max 95, mean 47.5.
	if ctx[0] != 0 || ctx[1] != 95 || ctx[2] != 47.5 {
		t.Fatalf("day-0 stats = %v", ctx[:4])
	}
	if ctx[3] <= 0 {
		t.Fatalf("day-0 std = %g, want > 0", ctx[3])
	}
	// Day 1: constant 5 → min=max=mean=5, std=0.
	if ctx[4] != 5 || ctx[5] != 5 || ctx[6] != 5 || ctx[7] != 0 {
		t.Fatalf("day-1 stats = %v", ctx[4:8])
	}
}

func TestUnivariateRejectsWrongLength(t *testing.T) {
	if _, err := Univariate(make([]float64, 10)); err == nil {
		t.Fatal("short week must be rejected")
	}
}

func TestUnivariateExtractor(t *testing.T) {
	frames := make([][]float64, dataset.ReadingsPerWeek)
	for i := range frames {
		frames[i] = []float64{1}
	}
	var e UnivariateExtractor
	ctx, err := e.Context(frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctx) != e.Dim() {
		t.Fatalf("context width %d, want %d", len(ctx), e.Dim())
	}
	frames[0] = []float64{1, 2}
	if _, err := e.Context(frames); err == nil {
		t.Fatal("multi-dim frame must be rejected")
	}
}

func TestUnivariateContextSeparatesAnomalies(t *testing.T) {
	// An outage week should have a visibly lower per-day min than a normal
	// week — the signal the policy network exploits.
	ds, err := dataset.GeneratePower(dataset.PowerConfig{
		TrainWeeks: 5, TestWeeks: 200, PolicyWeeks: 1, AnomalyRate: 0.5, Noise: 0.02, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	var normMin, outageMin []float64
	for _, s := range ds.Test {
		ctx, err := Univariate(s.Values)
		if err != nil {
			t.Fatal(err)
		}
		weekMin := ctx[0]
		for d := 1; d < dataset.DaysPerWeek; d++ {
			if ctx[4*d] < weekMin {
				weekMin = ctx[4*d]
			}
		}
		switch {
		case !s.Label:
			normMin = append(normMin, weekMin)
		case s.Hardness == dataset.HardnessEasy:
			outageMin = append(outageMin, weekMin)
		}
	}
	if len(normMin) == 0 || len(outageMin) == 0 {
		t.Skip("splits too small")
	}
	var nAvg, oAvg float64
	for _, v := range normMin {
		nAvg += v
	}
	for _, v := range outageMin {
		oAvg += v
	}
	nAvg /= float64(len(normMin))
	oAvg /= float64(len(outageMin))
	if !(oAvg < nAvg) {
		t.Fatalf("outage weeks should have lower minima: normal %g vs outage %g", nAvg, oAvg)
	}
}
