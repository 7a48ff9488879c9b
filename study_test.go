package repro

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hec"
)

// TestStudyRun runs a one-kind study at the profile's default seed and
// checks what it keeps: the seed actually used, the rows, and a
// per-hardness tally that adds up to each scheme's Table II row.
func TestStudyRun(t *testing.T) {
	res, err := Study{Kinds: []Kind{Univariate}, Options: []Option{WithFast()}}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 1 {
		t.Fatalf("%d runs, want 1", len(res.Runs))
	}
	run := res.Runs[0]
	if want := fastUnivariateOptions().Seed; run.Kind != Univariate || run.Seed != want {
		t.Errorf("run is %v seed %d, want univariate seed %d", run.Kind, run.Seed, want)
	}
	if len(run.Models) != hec.NumLayers || len(run.Schemes) != 5 || len(run.Hardness) != 5 {
		t.Fatalf("%d model rows, %d scheme rows, %d hardness tallies", len(run.Models), len(run.Schemes), len(run.Hardness))
	}
	for s, row := range run.Schemes {
		var windows, correct int
		var layers [hec.NumLayers]int
		for _, c := range run.Hardness[s] {
			windows += c.Windows
			correct += c.Correct
			for l, n := range c.Layers {
				layers[l] += n
			}
		}
		if windows != run.TestWindows {
			t.Errorf("%s: grades hold %d windows, want %d", row.Scheme, windows, run.TestWindows)
		}
		if got := float64(correct) / float64(windows); got != row.Accuracy {
			t.Errorf("%s: grades are %g accurate, Table II says %g", row.Scheme, got, row.Accuracy)
		}
		for l, n := range layers {
			if got := float64(n) / float64(windows); got != row.LayerShares[l] {
				t.Errorf("%s: grades put %g at %v, Table II says %g", row.Scheme, got, hec.Layer(l), row.LayerShares[l])
			}
		}
	}
}

// TestStudyRunCanceled checks a done context stops the study before any
// build and surfaces in the repro taxonomy.
func TestStudyRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Study{Kinds: []Kind{Univariate, Multivariate}, Seeds: []int64{1, 2}, Options: []Option{WithFast()}}.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// shortPanel is a hand-built study whose Our Method series covers only
// five windows, fewer than Fig. 3b's ten checkpoints.
func shortPanel(seeds int) StudyResult {
	res := &hec.Result{
		Scheme:      ourMethod,
		Predictions: []bool{true, false, false, true, false},
		Truths:      []bool{true, false, true, true, false},
		DelaysMs:    []float64{12.4, 12.4, 504.5, 12.4, 257.4},
		Layers:      []hec.Layer{hec.LayerIoT, hec.LayerIoT, hec.LayerCloud, hec.LayerIoT, hec.LayerEdge},
		AccSeries:   []float64{1, 1, 2.0 / 3, 0.75, 0.8},
		F1Series:    []float64{1, 1, 2.0 / 3, 0.8, 0.8},
	}
	var out StudyResult
	for i := range seeds {
		out.Runs = append(out.Runs, StudyRun{Kind: Univariate, Seed: int64(i + 1),
			Schemes: []SchemeRow{{Scheme: ourMethod, Result: res}}})
	}
	return out
}

// TestWriteFig3bShortSplit renders Fig. 3b over a five-window split, where
// the first checkpoints fall before the first window: they repeat it
// instead of indexing the series at -1.
func TestWriteFig3bShortSplit(t *testing.T) {
	var out strings.Builder
	if err := shortPanel(1).WriteFig3b(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"FIG 3b (univariate): adaptive-scheme result panel, 5 samples\n",
		"2        0      1      504.5      Cloud \n",
		"  after    1: acc=1.0000 f1=1.0000\n",
		"  after    3: acc=0.6667 f1=0.6667\n",
		"  after    5: acc=0.8000 f1=0.8000\n\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "more)") {
		t.Errorf("five windows fit the panel:\n%s", out.String())
	}

	out.Reset()
	if err := shortPanel(2).WriteFig3b(&out); err != nil {
		t.Fatal(err)
	}
	if want := "  at  10%: acc=1.0000 ± 0.0000 f1=1.0000 ± 0.0000\n"; !strings.Contains(out.String(), want) {
		t.Errorf("missing %q in:\n%s", want, out.String())
	}
}

// TestWriteFig3bNeedsOurMethod checks the view reports a study without
// the adaptive scheme's series instead of printing an empty panel.
func TestWriteFig3bNeedsOurMethod(t *testing.T) {
	res := StudyResult{Runs: []StudyRun{{Kind: Multivariate, Schemes: []SchemeRow{{Scheme: "Cloud"}}}}}
	if err := res.WriteFig3b(&strings.Builder{}); err == nil {
		t.Fatal("Fig. 3b without an Our Method row did not fail")
	}
}

// TestWriteHardness checks the per-hardness view on a hand-built tally:
// empty grades are left out and two seeds sum their windows and layers.
func TestWriteHardness(t *testing.T) {
	run := StudyRun{Kind: Univariate, Schemes: []SchemeRow{{Scheme: ourMethod}},
		Hardness: make([][dataset.NumHardness]HardnessCount, 1)}
	run.Hardness[0][dataset.HardnessNone] = HardnessCount{Windows: 4, Correct: 3, Layers: [hec.NumLayers]int{4, 0, 0}}
	run.Hardness[0][dataset.HardnessHard] = HardnessCount{Windows: 2, Correct: 2, Layers: [hec.NumLayers]int{0, 1, 1}}
	var out strings.Builder
	if err := (StudyResult{Runs: []StudyRun{run, run}}).WriteHardness(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Our Method   none           8    75.00 ± 0.00              8/0/0\n",
		"Our Method   hard           4   100.00 ± 0.00              0/2/2\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "easy") {
		t.Errorf("empty grade printed:\n%s", out.String())
	}
}

// TestStdOfOneSeedIsZero pins the aggregate's edge: one value has std 0,
// and two use the n−1 sample form.
func TestStdOfOneSeedIsZero(t *testing.T) {
	if m, s := meanStd([]float64{3.5}); m != 3.5 || s != 0 {
		t.Errorf("one value: mean %g std %g, want 3.5 and 0", m, s)
	}
	if m, s := meanStd([]float64{1, 3}); m != 2 || s != math.Sqrt2 {
		t.Errorf("meanStd(1, 3) = %g, %g, want 2 and √2", m, s)
	}
}
