package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfusionCounts(t *testing.T) {
	var c Confusion
	c.Add(true, true)   // TP
	c.Add(true, false)  // FP
	c.Add(false, false) // TN
	c.Add(false, true)  // FN
	c.Add(true, true)   // TP
	if c.TP != 2 || c.FP != 1 || c.TN != 1 || c.FN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if c.Total() != 5 {
		t.Fatalf("Total = %d", c.Total())
	}
	if got := c.Accuracy(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("Accuracy = %g, want 0.6", got)
	}
	if got := c.Precision(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Precision = %g, want 2/3", got)
	}
	if got := c.Recall(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Recall = %g, want 2/3", got)
	}
	if got := c.F1(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("F1 = %g, want 2/3", got)
	}
}

func TestConfusionZeroValueSafe(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 || c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Fatal("zero-value confusion must report 0 metrics")
	}
	if c.String() == "" {
		t.Fatal("String must render")
	}
}

func TestPerfectAndWorstF1(t *testing.T) {
	var perfect Confusion
	for i := 0; i < 10; i++ {
		perfect.Add(i%2 == 0, i%2 == 0)
	}
	if perfect.F1() != 1 || perfect.Accuracy() != 1 {
		t.Fatalf("perfect detector: %+v", perfect)
	}
	var worst Confusion
	for i := 0; i < 10; i++ {
		worst.Add(i%2 == 0, i%2 != 0)
	}
	if worst.F1() != 0 || worst.Accuracy() != 0 {
		t.Fatalf("inverted detector: %+v", worst)
	}
}

func TestDelayStats(t *testing.T) {
	var d DelayStats
	if d.Mean() != 0 || d.Min() != 0 || d.Max() != 0 || d.Percentile(50) != 0 {
		t.Fatal("zero-value stats must report 0")
	}
	for _, v := range []float64{10, 20, 30, 40, 50} {
		d.Add(v)
	}
	if d.Count() != 5 {
		t.Fatalf("Count = %d", d.Count())
	}
	if d.Mean() != 30 || d.Min() != 10 || d.Max() != 50 {
		t.Fatalf("mean/min/max = %g/%g/%g", d.Mean(), d.Min(), d.Max())
	}
	if got := d.Percentile(50); got != 30 {
		t.Fatalf("P50 = %g, want 30", got)
	}
	if got := d.Percentile(0); got != 10 {
		t.Fatalf("P0 = %g, want 10", got)
	}
	if got := d.Percentile(100); got != 50 {
		t.Fatalf("P100 = %g, want 50", got)
	}
	if got := d.Percentile(25); got != 20 {
		t.Fatalf("P25 = %g, want 20", got)
	}
}

func TestRewardSum(t *testing.T) {
	var r RewardSum
	if r.Mean() != 0 {
		t.Fatal("zero-value mean must be 0")
	}
	r.Add(0.9)
	r.Add(0.7)
	if math.Abs(r.Sum()-1.6) > 1e-12 {
		t.Fatalf("Sum = %g", r.Sum())
	}
	if math.Abs(r.Mean()-0.8) > 1e-12 {
		t.Fatalf("Mean = %g", r.Mean())
	}
}

// Property: accuracy, precision, recall and F1 always lie in [0,1], and F1
// is never above max(precision, recall).
func TestQuickConfusionBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var c Confusion
		for i := 0; i < 1+rng.Intn(100); i++ {
			c.Add(rng.Intn(2) == 0, rng.Intn(2) == 0)
		}
		in01 := func(v float64) bool { return v >= 0 && v <= 1 }
		if !in01(c.Accuracy()) || !in01(c.Precision()) || !in01(c.Recall()) || !in01(c.F1()) {
			return false
		}
		max := c.Precision()
		if c.Recall() > max {
			max = c.Recall()
		}
		return c.F1() <= max+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var d DelayStats
		for i := 0; i < 1+rng.Intn(50); i++ {
			d.Add(rng.Float64() * 1000)
		}
		prev := d.Min()
		for p := 0.0; p <= 100; p += 10 {
			v := d.Percentile(p)
			if v < prev-1e-9 || v > d.Max()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPercentileEdgeCases pins the total behaviour of Percentile: empty
// stats, a single sample, out-of-range p and a NaN p must all return
// documented values instead of indexing with an undefined float→int
// conversion.
func TestPercentileEdgeCases(t *testing.T) {
	var empty DelayStats
	for _, p := range []float64{-5, 0, 50, 100, 200, math.NaN()} {
		if got := empty.Percentile(p); got != 0 {
			t.Errorf("empty Percentile(%v) = %g, want 0", p, got)
		}
	}

	var one DelayStats
	one.Add(42)
	for _, p := range []float64{-5, 0, 1, 50, 99, 100, 200} {
		if got := one.Percentile(p); got != 42 {
			t.Errorf("single-sample Percentile(%v) = %g, want 42", p, got)
		}
	}
	if got := one.Percentile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("single-sample Percentile(NaN) = %g, want NaN", got)
	}

	var d DelayStats
	d.Add(10)
	d.Add(20)
	if got := d.Percentile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Percentile(NaN) = %g, want NaN", got)
	}
	if got := d.Percentile(-1); got != 10 {
		t.Errorf("Percentile(-1) = %g, want min", got)
	}
	if got := d.Percentile(1000); got != 20 {
		t.Errorf("Percentile(1000) = %g, want max", got)
	}
}
