package dataset

import (
	"math"
	"testing"

	"repro/internal/mat"
)

func smallMHealth(t *testing.T) *MHealthDataset {
	t.Helper()
	ds, err := GenerateMHealth(MHealthConfig{
		Subjects: 2, WalkSeconds: 30, OtherSeconds: 10, Noise: 0.08, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateMHealthShapes(t *testing.T) {
	ds := smallMHealth(t)
	for _, s := range ds.Train {
		if len(s.Frames) != WindowSize {
			t.Fatalf("window length %d, want %d", len(s.Frames), WindowSize)
		}
		for _, f := range s.Frames {
			if len(f) != Channels {
				t.Fatalf("frame width %d, want %d", len(f), Channels)
			}
			if !allFinite(f) {
				t.Fatal("non-finite frame")
			}
		}
		if s.Label || s.Activity != ActivityWalking {
			t.Fatal("training windows must be walking")
		}
	}
}

func TestGenerateMHealthValidation(t *testing.T) {
	if _, err := GenerateMHealth(MHealthConfig{Subjects: 0}); err == nil {
		t.Fatal("zero subjects must be rejected")
	}
}

func TestGenerateMHealthSplitProportions(t *testing.T) {
	ds := smallMHealth(t)
	walkingTotal := 0
	for _, s := range ds.Full {
		if s.Activity == ActivityWalking {
			walkingTotal++
		}
	}
	// Train should be ~70% of walking windows.
	ratio := float64(len(ds.Train)) / float64(walkingTotal)
	if ratio < 0.65 || ratio > 0.75 {
		t.Fatalf("train ratio = %g, want ≈0.7", ratio)
	}
	// Test contains both held-out walking and some of every activity grade.
	var normals, anomalies int
	acts := map[Activity]int{}
	for _, s := range ds.Test {
		if s.Label {
			anomalies++
		} else {
			normals++
		}
		acts[s.Activity]++
	}
	if normals == 0 || anomalies == 0 {
		t.Fatalf("test split normals=%d anomalies=%d", normals, anomalies)
	}
	for a := 1; a < NumActivities; a++ {
		if acts[Activity(a)] == 0 {
			t.Fatalf("activity %v missing from test split", Activity(a))
		}
	}
}

func TestGenerateMHealthStandardised(t *testing.T) {
	ds := smallMHealth(t)
	sums := make([]float64, Channels)
	sq := make([]float64, Channels)
	n := 0
	for _, s := range ds.Train {
		for _, f := range s.Frames {
			for j, v := range f {
				sums[j] += v
				sq[j] += v * v
			}
			n++
		}
	}
	for j := 0; j < Channels; j++ {
		mean := sums[j] / float64(n)
		std := math.Sqrt(sq[j]/float64(n) - mean*mean)
		if math.Abs(mean) > 1e-6 {
			t.Fatalf("channel %d mean = %g, want ~0", j, mean)
		}
		if math.Abs(std-1) > 1e-6 {
			t.Fatalf("channel %d std = %g, want ~1", j, std)
		}
	}
}

func TestGenerateMHealthDeterministic(t *testing.T) {
	cfg := MHealthConfig{Subjects: 1, WalkSeconds: 20, OtherSeconds: 10, Noise: 0.05, Seed: 11}
	a, err := GenerateMHealth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateMHealth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Test) != len(b.Test) {
		t.Fatal("split sizes differ across identical seeds")
	}
	for i := range a.Test {
		if a.Test[i].Activity != b.Test[i].Activity {
			t.Fatal("activities differ across identical seeds")
		}
		for ti, f := range a.Test[i].Frames {
			for j, v := range f {
				if v != b.Test[i].Frames[ti][j] {
					t.Fatal("values differ across identical seeds")
				}
			}
		}
	}
}

// TestActivityDistanceOrdering validates the gait model: activities graded
// hard sit closer to walking (per-channel RMS distance of mean absolute
// amplitude) than activities graded easy.
func TestActivityDistanceOrdering(t *testing.T) {
	ds := smallMHealth(t)
	// Per-activity mean |value| per channel over all windows.
	profile := map[Activity][]float64{}
	counts := map[Activity]int{}
	for _, s := range ds.Full {
		p, ok := profile[s.Activity]
		if !ok {
			p = make([]float64, Channels)
			profile[s.Activity] = p
		}
		for _, f := range s.Frames {
			for j, v := range f {
				p[j] += math.Abs(v)
			}
		}
		counts[s.Activity] += len(s.Frames)
	}
	for a, p := range profile {
		for j := range p {
			p[j] /= float64(counts[a])
		}
	}
	dist := func(a Activity) float64 {
		var s float64
		for j := 0; j < Channels; j++ {
			d := profile[a][j] - profile[ActivityWalking][j]
			s += d * d
		}
		return math.Sqrt(s)
	}
	avgByHardness := map[Hardness][]float64{}
	for a := 1; a < NumActivities; a++ {
		act := Activity(a)
		avgByHardness[act.Hardness()] = append(avgByHardness[act.Hardness()], dist(act))
	}
	easy := mat.MeanVec(avgByHardness[HardnessEasy])
	hard := mat.MeanVec(avgByHardness[HardnessHard])
	if !(easy > hard) {
		t.Fatalf("hardness grading inconsistent: easy dist %g should exceed hard dist %g", easy, hard)
	}
}

func TestActivityStringAndHardness(t *testing.T) {
	if ActivityWalking.String() != "walking" || ActivityJumping.String() != "jumping" {
		t.Fatal("activity names wrong")
	}
	if Activity(99).String() != "Activity(99)" {
		t.Fatal("out-of-range activity name wrong")
	}
	if ActivityWalking.Hardness() != HardnessNone {
		t.Fatal("walking must have no hardness")
	}
	if ActivitySitting.Hardness() != HardnessEasy || ActivityJogging.Hardness() != HardnessHard {
		t.Fatal("hardness grading wrong")
	}
}

func TestSlidingWindows(t *testing.T) {
	series := make([][]float64, 10)
	for i := range series {
		series[i] = []float64{float64(i)}
	}
	ws := slidingWindows(series, 4, 2)
	if len(ws) != 4 {
		t.Fatalf("got %d windows, want 4", len(ws))
	}
	if ws[1][0][0] != 2 || ws[3][3][0] != 9 {
		t.Fatalf("window contents wrong: %v", ws)
	}
	// Windows own their storage.
	ws[0][0][0] = 99
	if series[0][0] == 99 {
		t.Fatal("windows must copy frames")
	}
	if got := slidingWindows(series[:3], 4, 2); got != nil {
		t.Fatal("short series must yield no windows")
	}
}

func TestFitStandardizerEdgeCases(t *testing.T) {
	s := FitStandardizer(nil, 3)
	for _, sd := range s.Std {
		if sd != 1 {
			t.Fatal("empty fit must default std to 1")
		}
	}
	// Constant dimension gets std 1.
	s = FitStandardizer([][]float64{{5, 1}, {5, 3}}, 2)
	if s.Std[0] != 1 {
		t.Fatalf("constant dim std = %g, want 1", s.Std[0])
	}
	if s.Mean[0] != 5 || s.Mean[1] != 2 {
		t.Fatalf("means = %v", s.Mean)
	}
	f := []float64{6, 3}
	s.Apply(f)
	if f[0] != 1 {
		t.Fatalf("standardised value = %g, want 1", f[0])
	}
}
