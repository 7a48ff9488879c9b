package repro

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/hec"
	"repro/internal/parallel"
)

// Study builds one system per (kind, seed) pair and keeps what the paper
// reports about each: the Table I and Table II rows, the adaptive scheme's
// per-sample series (Fig. 3b) and a per-hardness breakdown. It is the one
// driver behind hecbench's tables, its seed sweep and the examples.
type Study struct {
	Kinds []Kind
	// Seeds are applied with WithSeed after Options; nil means one build
	// per kind at the profile's default seed.
	Seeds   []int64
	Options []Option
}

// StudyResult holds every run of a study, ordered by Study.Kinds and then
// by Study.Seeds. Its views (WriteTableI, WriteTableII, WriteFig3b,
// WriteHardness) print one section per kind: the per-run form when the
// kind has one run, mean ± sample standard deviation over its runs
// otherwise. Runs of one kind must list their rows in the same order,
// which every study's runs do.
type StudyResult struct {
	Runs []StudyRun `json:"runs"`
}

// StudyRun is what a study keeps of one built system.
type StudyRun struct {
	Kind Kind `json:"kind"`
	// Seed is the seed the system was built from.
	Seed        int64         `json:"seed"`
	BuildTime   time.Duration `json:"build_time_ns"`
	Alpha       float64       `json:"alpha"`
	TestWindows int           `json:"test_windows"`
	Models      []ModelRow    `json:"models"`
	Schemes     []SchemeRow   `json:"schemes"`
	// Hardness[s][h] tallies Schemes[s] over the test windows of grade h.
	Hardness [][dataset.NumHardness]HardnessCount `json:"hardness"`
}

// HardnessCount tallies one scheme over the test windows of one anomaly
// grade.
type HardnessCount struct {
	Windows int                `json:"windows"`
	Correct int                `json:"correct"`
	Layers  [hec.NumLayers]int `json:"layers"` // windows resolved per layer
}

// The Table II rows the headline comparison and Fig. 3b read.
var (
	ourMethod = tableLabel(SchemeAdaptive)
	cloudOnly = tableLabel(SchemeCloud)
)

// Run builds every (kind, seed) pair through BuildContext, at most
// min(4, GOMAXPROCS) at once: each build already fans its training and
// precompute out over the CPUs, and the bound also caps how many trained
// systems are resident at once. Only the rows are kept; each System is
// dropped as soon as its run is taken.
func (st Study) Run(ctx context.Context) (StudyResult, error) {
	seeds := st.Seeds
	if seeds == nil {
		seeds = []int64{0} // a placeholder: no WithSeed is applied
	}
	runs, err := parallel.MapCtx(ctx, min(4, runtime.GOMAXPROCS(0)), len(st.Kinds)*len(seeds), func(i int) (StudyRun, error) {
		opts := st.Options
		if st.Seeds != nil {
			opts = append(slices.Clip(opts), WithSeed(seeds[i%len(seeds)]))
		}
		start := time.Now()
		sys, err := BuildContext(ctx, st.Kinds[i/len(seeds)], opts...)
		if err != nil {
			return StudyRun{}, err
		}
		return sys.studyRun(ctx, time.Since(start))
	})
	return StudyResult{Runs: runs}, err
}

// studyRun takes a built system's rows and tallies each scheme per anomaly
// grade.
func (s *System) studyRun(ctx context.Context, buildTime time.Duration) (StudyRun, error) {
	schemes, err := s.SchemeRowsContext(ctx)
	if err != nil {
		return StudyRun{}, err
	}
	hardness := make([][dataset.NumHardness]HardnessCount, len(schemes))
	for k, row := range schemes {
		for i, l := range row.Result.Layers {
			c := &hardness[k][s.TestMeta[i].Hardness]
			c.Windows++
			c.Correct += b2i(row.Result.Predictions[i] == row.Result.Truths[i])
			c.Layers[l]++
		}
	}
	return StudyRun{
		Kind:        s.Kind,
		Seed:        s.Seed,
		BuildTime:   buildTime,
		Alpha:       s.Alpha,
		TestWindows: len(s.TestSamples),
		Models:      s.ModelRows(),
		Schemes:     schemes,
		Hardness:    hardness,
	}, nil
}

// Of returns the runs of one kind.
func (r StudyResult) Of(kind Kind) StudyResult {
	var out StudyResult
	for _, run := range r.Runs {
		if run.Kind == kind {
			out.Runs = append(out.Runs, run)
		}
	}
	return out
}

// WriteTableI writes Table I: each model's parameter count, standalone
// accuracy and F1 on the test split, and execution time on its own layer.
func (r StudyResult) WriteTableI(w io.Writer) error {
	return r.eachKind(w, func(b *strings.Builder, runs []StudyRun) error {
		if len(runs) == 1 {
			fmt.Fprintf(b, "TABLE I (%v): comparison among AD models\n", runs[0].Kind)
			fmt.Fprintf(b, "%-22s %6s %12s %12s %10s %14s\n", "Model", "Layer", "#Parameters", "Accuracy(%)", "F1-score", "Exec time (ms)")
			for _, m := range runs[0].Models {
				fmt.Fprintf(b, "%-22s %6s %12d %12.2f %10.3f %14.1f\n", m.Name, m.Layer, m.NumParams, m.Accuracy*100, m.F1, m.ExecMs)
			}
		} else {
			fmt.Fprintf(b, "TABLE I (%v, %d seeds): mean ± std per model\n", runs[0].Kind, len(runs))
			fmt.Fprintf(b, "%-22s %6s %12s %17s %16s %18s\n", "Model", "Layer", "#Parameters", "Accuracy(%)", "F1-score", "Exec time (ms)")
			for i, m := range runs[0].Models {
				fmt.Fprintf(b, "%-22s %6s %12d %s %s %s\n", m.Name, m.Layer, m.NumParams,
					pm(10, 2, across(runs, func(r StudyRun) float64 { return r.Models[i].Accuracy * 100 })),
					pm(8, 3, across(runs, func(r StudyRun) float64 { return r.Models[i].F1 })),
					pm(12, 1, across(runs, func(r StudyRun) float64 { return r.Models[i].ExecMs })))
			}
		}
		b.WriteString("\n")
		return nil
	})
}

// WriteTableII writes Table II: each scheme's F1, accuracy, mean delay,
// summed reward and (per run) layer shares, then the abstract's headline
// comparison of Our Method against always-Cloud.
func (r StudyResult) WriteTableII(w io.Writer) error {
	return r.eachKind(w, func(b *strings.Builder, runs []StudyRun) error {
		if len(runs) > 1 {
			fmt.Fprintf(b, "TABLE II (%v, %d seeds): mean ± std per scheme\n", runs[0].Kind, len(runs))
			fmt.Fprintf(b, "%-12s %16s %18s %22s %18s\n", "Scheme", "F1", "Accuracy(%)", "Delay(ms)", "Reward")
			for i, s := range runs[0].Schemes {
				fmt.Fprintf(b, "%-12s %s %s %s %s\n", s.Scheme,
					pm(8, 3, across(runs, func(r StudyRun) float64 { return r.Schemes[i].F1 })),
					pm(10, 2, across(runs, func(r StudyRun) float64 { return r.Schemes[i].Accuracy * 100 })),
					pm(12, 2, across(runs, func(r StudyRun) float64 { return r.Schemes[i].MeanDelayMs })),
					pm(10, 2, across(runs, func(r StudyRun) float64 { return r.Schemes[i].RewardSum })))
			}
			m, s := meanStd(across(runs, func(r StudyRun) float64 { saving, _, _ := headline(r); return saving }))
			fmt.Fprintf(b, "-- delay reduction vs Cloud: %.1f%% ± %.1f (paper: 71.4%% univariate, 7.84%% multivariate)\n\n", m, s)
			return nil
		}
		run := runs[0]
		fmt.Fprintf(b, "TABLE II (%v): comparison among AD model detection schemes (alpha=%g)\n", run.Kind, run.Alpha)
		fmt.Fprintf(b, "%-12s %8s %12s %10s %10s %24s\n", "Scheme", "F1", "Accuracy(%)", "Delay(ms)", "Reward", "Layer shares IoT/Edge/Cloud")
		for _, s := range run.Schemes {
			fmt.Fprintf(b, "%-12s %8.3f %12.2f %10.2f %10.2f %11.2f/%.2f/%.2f\n", s.Scheme, s.F1, s.Accuracy*100, s.MeanDelayMs, s.RewardSum,
				s.LayerShares[hec.LayerIoT], s.LayerShares[hec.LayerEdge], s.LayerShares[hec.LayerCloud])
		}
		if saving, gap, ok := headline(run); ok {
			fmt.Fprintf(b, "-- delay reduction vs Cloud: %.1f%% (paper: 71.4%% univariate, 7.84%% multivariate)\n", saving)
			fmt.Fprintf(b, "-- accuracy gap vs Cloud: %.2f pp (paper: 0.29 pp univariate, 0.40 pp multivariate)\n", gap)
		}
		b.WriteString("\n")
		return nil
	})
}

// WriteFig3b writes Our Method's streaming result panel from its retained
// Table II series: for one run, the first windows' prediction, truth,
// delay and layer, then the running accuracy and F1 at ten checkpoints;
// over several runs, the checkpoints' mean ± std.
func (r StudyResult) WriteFig3b(w io.Writer) error {
	return r.eachKind(w, func(b *strings.Builder, runs []StudyRun) error {
		for _, run := range runs {
			if row := schemeRow(run.Schemes, ourMethod); row == nil || row.Result == nil {
				return fmt.Errorf("repro: %v run with seed %d has no %s series", run.Kind, run.Seed, ourMethod)
			}
		}
		if len(runs) > 1 {
			fmt.Fprintf(b, "FIG 3b (%v, %d seeds): adaptive-scheme cumulative accuracy / F1, mean ± std at 10 checkpoints\n", runs[0].Kind, len(runs))
			for c := 1; c <= 10; c++ {
				var acc, f1 []float64
				for _, run := range runs {
					res := schemeRow(run.Schemes, ourMethod).Result
					if n := len(res.AccSeries); n > 0 {
						acc = append(acc, res.AccSeries[checkpoint(c, n)])
						f1 = append(f1, res.F1Series[checkpoint(c, n)])
					}
				}
				fmt.Fprintf(b, "  at %3d%%: acc=%s f1=%s\n", c*10, pm(6, 4, acc), pm(6, 4, f1))
			}
			b.WriteString("\n")
			return nil
		}
		res := schemeRow(runs[0].Schemes, ourMethod).Result
		n := len(res.Predictions)
		fmt.Fprintf(b, "FIG 3b (%v): adaptive-scheme result panel, %d samples\n", runs[0].Kind, n)
		fmt.Fprintf(b, "%-8s %-6s %-6s %-10s %-6s\n", "sample", "pred", "truth", "delay(ms)", "layer")
		for i := range min(n, 12) {
			fmt.Fprintf(b, "%-8d %-6v %-6v %-10.1f %-6v\n", i, b2i(res.Predictions[i]), b2i(res.Truths[i]), res.DelaysMs[i], res.Layers[i])
		}
		if n > 12 {
			fmt.Fprintf(b, "... (%d more)\n", n-12)
		}
		if n > 0 {
			b.WriteString("cumulative accuracy / F1 at 10 checkpoints:\n")
			for c := 1; c <= 10; c++ {
				i := checkpoint(c, n)
				fmt.Fprintf(b, "  after %4d: acc=%.4f f1=%.4f\n", i+1, res.AccSeries[i], res.F1Series[i])
			}
		}
		b.WriteString("\n")
		return nil
	})
}

// WriteHardness writes, per scheme and anomaly grade, how many test
// windows carry the grade, the scheme's accuracy on them and the layers
// that resolved them. Over several runs the windows and layers are summed
// and the accuracy is the mean ± std over the runs that have the grade.
// Grades without windows are left out.
func (r StudyResult) WriteHardness(w io.Writer) error {
	return r.eachKind(w, func(b *strings.Builder, runs []StudyRun) error {
		if len(runs) == 1 {
			fmt.Fprintf(b, "PER-HARDNESS (%v): test windows per anomaly grade\n", runs[0].Kind)
		} else {
			fmt.Fprintf(b, "PER-HARDNESS (%v, %d seeds): windows and layers summed, accuracy mean ± std\n", runs[0].Kind, len(runs))
		}
		fmt.Fprintf(b, "%-12s %-7s %8s %16s %22s\n", "Scheme", "Grade", "Windows", "Accuracy(%)", "Layers IoT/Edge/Cloud")
		for s, row := range runs[0].Schemes {
			for h := range dataset.NumHardness {
				var sum HardnessCount
				var accs []float64
				for _, run := range runs {
					if c := run.Hardness[s][h]; c.Windows > 0 {
						sum.Windows += c.Windows
						for l, n := range c.Layers {
							sum.Layers[l] += n
						}
						accs = append(accs, float64(c.Correct)/float64(c.Windows)*100)
					}
				}
				if sum.Windows == 0 {
					continue
				}
				acc := fmt.Sprintf("%16.2f", accs[0])
				if len(runs) > 1 {
					acc = pm(8, 2, accs)
				}
				fmt.Fprintf(b, "%-12s %-7v %8d %s %14d/%d/%d\n", row.Scheme, h, sum.Windows, acc,
					sum.Layers[hec.LayerIoT], sum.Layers[hec.LayerEdge], sum.Layers[hec.LayerCloud])
			}
		}
		b.WriteString("\n")
		return nil
	})
}

// eachKind renders section over the runs of each kind, in order of first
// appearance, and writes the whole text once every section succeeded.
func (r StudyResult) eachKind(w io.Writer, section func(b *strings.Builder, runs []StudyRun) error) error {
	var b strings.Builder
	var kinds []Kind
	for _, run := range r.Runs {
		if !slices.Contains(kinds, run.Kind) {
			kinds = append(kinds, run.Kind)
			if err := section(&b, r.Of(run.Kind).Runs); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// schemeRow returns the row of the named scheme, or nil.
func schemeRow(rows []SchemeRow, name string) *SchemeRow {
	for i := range rows {
		if rows[i].Scheme == name {
			return &rows[i]
		}
	}
	return nil
}

// headline is the abstract's comparison of Our Method against always-Cloud:
// the mean-delay saving in percent and the accuracy gap in points. ok is
// false, and both are 0, when either row is missing or Cloud has no delay.
func headline(run StudyRun) (saving, gap float64, ok bool) {
	cloud, ours := schemeRow(run.Schemes, cloudOnly), schemeRow(run.Schemes, ourMethod)
	if cloud == nil || ours == nil || cloud.MeanDelayMs <= 0 {
		return 0, 0, false
	}
	return (1 - ours.MeanDelayMs/cloud.MeanDelayMs) * 100, (cloud.Accuracy - ours.Accuracy) * 100, true
}

// checkpoint is the series index of the c-th of ten checkpoints over n
// windows; splits under ten windows repeat their first window.
func checkpoint(c, n int) int { return max(c*n/10-1, 0) }

// across collects one metric from every run.
func across(runs []StudyRun, metric func(StudyRun) float64) []float64 {
	xs := make([]float64, len(runs))
	for i, run := range runs {
		xs[i] = metric(run)
	}
	return xs
}

// pm formats the mean ± std of xs, the mean right-aligned in width.
func pm(width, prec int, xs []float64) string {
	m, s := meanStd(xs)
	return fmt.Sprintf("%*.*f ± %.*f", width, prec, m, prec, s)
}

// meanStd returns the mean and the sample standard deviation (n−1) of xs;
// the deviation of a single value is 0.
func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)-1))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
