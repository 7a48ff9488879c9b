package dataset

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// allFinite reports whether every element of x is finite.
func allFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func TestGeneratePowerShapes(t *testing.T) {
	cfg := PowerConfig{TrainWeeks: 10, TestWeeks: 8, PolicyWeeks: 6, AnomalyRate: 0.5, Noise: 0.04, Seed: 3}
	ds, err := GeneratePower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Train) != 10 || len(ds.Test) != 8 || len(ds.PolicyTrain) != 6 {
		t.Fatalf("split sizes %d/%d/%d", len(ds.Train), len(ds.Test), len(ds.PolicyTrain))
	}
	for _, s := range ds.Train {
		if len(s.Values) != ReadingsPerWeek {
			t.Fatalf("sample length %d, want %d", len(s.Values), ReadingsPerWeek)
		}
		if s.Label || s.Hardness != HardnessNone {
			t.Fatal("training weeks must be normal")
		}
		if !allFinite(s.Values) {
			t.Fatal("non-finite values")
		}
	}
}

func TestGeneratePowerValidation(t *testing.T) {
	if _, err := GeneratePower(PowerConfig{TrainWeeks: 0, TestWeeks: 1}); err == nil {
		t.Fatal("zero train weeks must be rejected")
	}
	if _, err := GeneratePower(PowerConfig{TrainWeeks: 1, TestWeeks: 1, AnomalyRate: 1.5}); err == nil {
		t.Fatal("anomaly rate > 1 must be rejected")
	}
}

func TestGeneratePowerDeterministic(t *testing.T) {
	cfg := DefaultPowerConfig()
	cfg.TrainWeeks, cfg.TestWeeks, cfg.PolicyWeeks = 4, 4, 2
	a, err := GeneratePower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GeneratePower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Test {
		if a.Test[i].Label != b.Test[i].Label {
			t.Fatal("labels differ across identical seeds")
		}
		for j := range a.Test[i].Values {
			if a.Test[i].Values[j] != b.Test[i].Values[j] {
				t.Fatal("values differ across identical seeds")
			}
		}
	}
	cfg.Seed++
	c, err := GeneratePower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for j := range a.Test[0].Values {
		if a.Test[0].Values[j] != c.Test[0].Values[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGeneratePowerStandardised(t *testing.T) {
	cfg := DefaultPowerConfig()
	cfg.TrainWeeks, cfg.TestWeeks, cfg.PolicyWeeks = 30, 10, 5
	ds, err := GeneratePower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var all []float64
	for _, s := range ds.Train {
		all = append(all, s.Values...)
	}
	if m := mat.MeanVec(all); math.Abs(m) > 1e-9 {
		t.Fatalf("train mean = %g, want ~0", m)
	}
	if sd := mat.StdVec(all); math.Abs(sd-1) > 1e-9 {
		t.Fatalf("train std = %g, want ~1", sd)
	}
}

func TestGeneratePowerAnomalyRate(t *testing.T) {
	cfg := PowerConfig{TrainWeeks: 5, TestWeeks: 400, PolicyWeeks: 1, AnomalyRate: 0.35, Noise: 0.04, Seed: 9}
	ds, err := GeneratePower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	grades := map[Hardness]int{}
	for _, s := range ds.Test {
		if s.Label {
			count++
			grades[s.Hardness]++
		} else if s.Hardness != HardnessNone {
			t.Fatal("normal sample with a hardness grade")
		}
	}
	rate := float64(count) / 400
	if rate < 0.25 || rate > 0.45 {
		t.Fatalf("anomaly rate = %g, want ≈0.35", rate)
	}
	for _, h := range []Hardness{HardnessEasy, HardnessMedium, HardnessHard} {
		if grades[h] == 0 {
			t.Fatalf("no %v anomalies in 400 weeks", h)
		}
	}
}

// TestAnomalySeverityOrdering checks the generator's core promise: easy
// anomalies distort the signal more than medium, which distort more than
// hard, measured as RMS distance from the normal weekday profile.
func TestAnomalySeverityOrdering(t *testing.T) {
	cfg := PowerConfig{TrainWeeks: 5, TestWeeks: 600, PolicyWeeks: 1, AnomalyRate: 0.9, Noise: 0.02, Seed: 5}
	ds, err := GeneratePower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mean reference week from training data.
	ref := make([]float64, ReadingsPerWeek)
	for _, s := range ds.Train {
		for i, v := range s.Values {
			ref[i] += v
		}
	}
	for i := range ref {
		ref[i] /= float64(len(ds.Train))
	}
	rms := map[Hardness][]float64{}
	for _, s := range ds.Test {
		if !s.Label {
			continue
		}
		var sum float64
		for i, v := range s.Values {
			d := v - ref[i]
			sum += d * d
		}
		rms[s.Hardness] = append(rms[s.Hardness], math.Sqrt(sum/float64(len(s.Values))))
	}
	avg := func(h Hardness) float64 { return mat.MeanVec(rms[h]) }
	if !(avg(HardnessEasy) > avg(HardnessMedium) && avg(HardnessMedium) > avg(HardnessHard)) {
		t.Fatalf("severity ordering violated: easy %g medium %g hard %g",
			avg(HardnessEasy), avg(HardnessMedium), avg(HardnessHard))
	}
}

func TestUniSampleDays(t *testing.T) {
	cfg := DefaultPowerConfig()
	cfg.TrainWeeks, cfg.TestWeeks, cfg.PolicyWeeks = 1, 1, 1
	ds, err := GeneratePower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	days := ds.Train[0].Days()
	if len(days) != DaysPerWeek {
		t.Fatalf("Days() returned %d slices", len(days))
	}
	for _, d := range days {
		if len(d) != ReadingsPerDay {
			t.Fatalf("day length %d", len(d))
		}
	}
	// Views alias the sample.
	days[0][0] = 42
	if ds.Train[0].Values[0] != 42 {
		t.Fatal("Days must return views")
	}
}

func TestHardnessString(t *testing.T) {
	cases := map[Hardness]string{
		HardnessNone: "none", HardnessEasy: "easy",
		HardnessMedium: "medium", HardnessHard: "hard",
		Hardness(99): "Hardness(99)",
	}
	for h, want := range cases {
		if h.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(h), h.String(), want)
		}
	}
}
