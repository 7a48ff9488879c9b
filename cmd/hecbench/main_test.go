package main

import (
	"context"
	"flag"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro"
)

var update = flag.Bool("update", false, "rewrite testdata/fast_all.golden from the current output")

// builtIn matches the one wall-clock figure in the output.
var builtIn = regexp.MustCompile(`built in \S+`)

// TestFastAllGolden pins `hecbench -fast -data both -table all`: the default
// seed study for both kinds must print the committed tables byte for byte,
// apart from the build durations. Trained bits are pinned on amd64 only,
// like the tier versions.
func TestFastAllGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("trained bits are pinned on amd64 only")
	}
	if testing.Short() {
		t.Skip("LSTM training is slow; skipped with -short")
	}
	kinds := []repro.Kind{repro.Univariate, repro.Multivariate}
	res, err := study(kinds, true, 0, 1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := render(&out, res, kinds, tables["all"], true); err != nil {
		t.Fatal(err)
	}
	got := builtIn.ReplaceAllString(out.String(), "built in <duration>")
	const golden = "testdata/fast_all.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("output diverges from %s at line %d:\n  got:  %q\n  want: %q\n(rerun with -update only for a deliberate change)", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gl), golden, len(wl))
	}
}

// TestStudyFlags pins how -seed and -reps pick the seeds.
func TestStudyFlags(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		reps int
		want []int64
	}{
		{0, 1, nil},
		{7, 1, []int64{7}},
		{0, 3, []int64{1, 2, 3}},
		{10, 2, []int64{11, 12}},
	} {
		got := study([]repro.Kind{repro.Univariate}, true, tc.seed, tc.reps).Seeds
		if !slices.Equal(got, tc.want) || (got == nil) != (tc.want == nil) {
			t.Errorf("-seed %d -reps %d: seeds %v, want %v", tc.seed, tc.reps, got, tc.want)
		}
	}
}

// twoSeeds is a hand-built study of two univariate runs whose metrics
// differ by known amounts, except Cloud's, which agree.
func twoSeeds() repro.StudyResult {
	run := func(seed int64, acc, delay float64) repro.StudyRun {
		return repro.StudyRun{
			Kind: repro.Univariate, Seed: seed, Alpha: 5e-4, TestWindows: 10,
			Models: []repro.ModelRow{{Name: "AE-IoT", NumParams: 100, Accuracy: acc, F1: acc, ExecMs: 12.4}},
			Schemes: []repro.SchemeRow{
				{Scheme: "Cloud", F1: 1, Accuracy: 1, MeanDelayMs: 500, RewardSum: 10},
				{Scheme: "Our Method", F1: acc, Accuracy: acc, MeanDelayMs: delay, RewardSum: 20 * acc},
			},
		}
	}
	return repro.StudyResult{Runs: []repro.StudyRun{run(1, 0.8, 100), run(2, 0.9, 200)}}
}

// TestSeedAggregation checks the mean ± sample std rows of a two-seed study
// against values worked by hand, and that a metric every seed agrees on
// has std 0.
func TestSeedAggregation(t *testing.T) {
	res := twoSeeds()
	var out strings.Builder
	if err := render(&out, res, []repro.Kind{repro.Univariate}, tables["1"], true); err != nil {
		t.Fatal(err)
	}
	if err := render(&out, res, []repro.Kind{repro.Univariate}, tables["2"], true); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"== building 2 univariate systems, seeds 1..2 (fast=true) ==",
		"TABLE I (univariate, 2 seeds): mean ± std per model",
		"AE-IoT                    IoT          100      85.00 ± 7.07    0.850 ± 0.071         12.4 ± 0.0",
		"TABLE II (univariate, 2 seeds): mean ± std per scheme",
		"Cloud           1.000 ± 0.000     100.00 ± 0.00       500.00 ± 0.00      10.00 ± 0.00",
		"Our Method      0.850 ± 0.071      85.00 ± 7.07       150.00 ± 70.71      17.00 ± 1.41",
		"-- delay reduction vs Cloud: 70.0% ± 14.1 (paper: 71.4% univariate, 7.84% multivariate)",
	} {
		if !strings.Contains(out.String(), want+"\n") {
			t.Errorf("missing line %q in:\n%s", want, out.String())
		}
	}
}

// TestOneSeedPrintsPerRunForm checks that a single run keeps the per-run
// tables: no ± anywhere, and the accuracy gap line that only a single run
// prints.
func TestOneSeedPrintsPerRunForm(t *testing.T) {
	res := repro.StudyResult{Runs: twoSeeds().Runs[:1]}
	var out strings.Builder
	if err := render(&out, res, []repro.Kind{repro.Univariate}, tables["2"], true); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "±") {
		t.Errorf("one seed printed an aggregate:\n%s", out.String())
	}
	if want := "-- delay reduction vs Cloud: 80.0% (paper"; !strings.Contains(out.String(), want) {
		t.Errorf("missing %q in:\n%s", want, out.String())
	}
}
