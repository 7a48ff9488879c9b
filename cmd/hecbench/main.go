// Command hecbench regenerates the paper's evaluation artifacts — Table I
// (model comparison), Table II (scheme comparison) and the Fig. 3b result
// series — on the synthetic datasets, printing rows in the paper's format.
//
// Usage:
//
//	hecbench -data univariate -table 1        # Table I, univariate suite
//	hecbench -data multivariate -table 2      # Table II, multivariate suite
//	hecbench -data univariate -table all      # everything incl. Fig. 3b
//	hecbench -fast                            # reduced scale (CI-friendly)
//	hecbench -fast -reps 8                    # 8 seeds, Table I, Table II
//	                                          # and Fig. 3b as mean ± std
//	hecbench -bench-json BENCH.json           # machine-readable perf snapshot
//	                                          # of the batched tensor engine
//	hecbench -roofline BENCH.json             # kernel roofline: measured
//	                                          # compute/bandwidth ceilings and
//	                                          # each dispatch level against them
//	hecbench -sched BENCH.json                # scheduler queue disciplines on
//	                                          # the deadline-overload burst
//	                                          # (EDF vs FIFO vs pathological)
//	hecbench -dist BENCH.json                 # model distribution: chunked
//	                                          # full fetches vs one-tensor
//	                                          # deltas
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
)

func main() {
	var (
		data   = flag.String("data", "univariate", "dataset: univariate | multivariate | both")
		table  = flag.String("table", "all", "artifact: 1 | 2 | fig3b | all")
		fast   = flag.Bool("fast", false, "reduced scale for quick runs")
		seed   = flag.Int64("seed", 0, "override the build seed (0 keeps defaults)")
		reps   = flag.Int("reps", 1, "build seeds seed+1..seed+reps and print every table as mean ± std over them")
		bench  = flag.String("bench-json", "", "write a seq-vs-batched perf snapshot (BENCH_N.json style) to this path ('-' = stdout) and exit")
		roof   = flag.String("roofline", "", "write a kernel roofline snapshot (BENCH_N.json style) to this path ('-' = stdout) and exit")
		schedJ = flag.String("sched", "", "write a scheduler queue-discipline comparison (deadline-overload burst, BENCH_N.json style) to this path ('-' = stdout) and exit")
		distJ  = flag.String("dist", "", "write a model-distribution comparison (delta vs full fetch, BENCH_N.json style) to this path ('-' = stdout) and exit")
	)
	flag.Parse()

	if *bench != "" {
		if err := runBenchJSON(*bench, *fast); err != nil {
			fmt.Fprintln(os.Stderr, "hecbench:", err)
			os.Exit(1)
		}
		return
	}
	if *roof != "" {
		if err := runRoofline(*roof, *fast); err != nil {
			fmt.Fprintln(os.Stderr, "hecbench:", err)
			os.Exit(1)
		}
		return
	}
	if *schedJ != "" {
		if err := runSchedBench(*schedJ); err != nil {
			fmt.Fprintln(os.Stderr, "hecbench:", err)
			os.Exit(1)
		}
		return
	}
	if *distJ != "" {
		if err := runDistBench(*distJ, *fast); err != nil {
			fmt.Fprintln(os.Stderr, "hecbench:", err)
			os.Exit(1)
		}
		return
	}

	kinds, err := parseKinds(*data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hecbench:", err)
		os.Exit(2)
	}
	views, ok := tables[strings.ToLower(*table)]
	if !ok {
		fmt.Fprintf(os.Stderr, "hecbench: unknown -table %q\n", *table)
		os.Exit(2)
	}
	res, err := study(kinds, *fast, *seed, *reps).Run(context.Background())
	if err == nil {
		err = render(os.Stdout, res, kinds, views, *fast)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hecbench:", err)
		os.Exit(1)
	}
}

// tables maps each -table value to the study views it prints, in order.
var tables = map[string][]func(repro.StudyResult, io.Writer) error{
	"1":     {repro.StudyResult.WriteTableI},
	"2":     {repro.StudyResult.WriteTableII},
	"fig3b": {repro.StudyResult.WriteFig3b},
	"all":   {repro.StudyResult.WriteTableI, repro.StudyResult.WriteTableII, repro.StudyResult.WriteFig3b},
}

func parseKinds(s string) ([]repro.Kind, error) {
	switch strings.ToLower(s) {
	case "univariate", "uni":
		return []repro.Kind{repro.Univariate}, nil
	case "multivariate", "multi":
		return []repro.Kind{repro.Multivariate}, nil
	case "both", "all":
		return []repro.Kind{repro.Univariate, repro.Multivariate}, nil
	default:
		return nil, fmt.Errorf("unknown -data %q", s)
	}
}

// study is the study the flags select: one build per kind at the profile
// defaults when seed is 0, at seed itself otherwise, and with reps > 1 one
// build per seed seed+1..seed+reps. Every listed seed, 0 included, is
// applied with WithSeed, so a sweep never repeats a seed.
func study(kinds []repro.Kind, fast bool, seed int64, reps int) repro.Study {
	st := repro.Study{Kinds: kinds}
	if fast {
		st.Options = []repro.Option{repro.WithFast()}
	}
	switch {
	case reps > 1:
		for i := range int64(reps) {
			st.Seeds = append(st.Seeds, seed+i+1)
		}
	case seed != 0:
		st.Seeds = []int64{seed}
	}
	return st
}

// render prints, per kind, a header with the build time and test split size
// and then the views.
func render(w io.Writer, res repro.StudyResult, kinds []repro.Kind, views []func(repro.StudyResult, io.Writer) error, fast bool) error {
	for _, kind := range kinds {
		kr := res.Of(kind)
		runs := kr.Runs
		if len(runs) == 1 {
			fmt.Fprintf(w, "== building %v system (fast=%v) ==\n", kind, fast)
			fmt.Fprintf(w, "   built in %v (%d test samples)\n\n", runs[0].BuildTime.Round(time.Millisecond), runs[0].TestWindows)
		} else {
			var total time.Duration
			for _, run := range runs {
				total += run.BuildTime
			}
			fmt.Fprintf(w, "== building %d %v systems, seeds %d..%d (fast=%v) ==\n", len(runs), kind, runs[0].Seed, runs[len(runs)-1].Seed, fast)
			fmt.Fprintf(w, "   built in %v each on average (%d test samples each)\n\n",
				(total / time.Duration(len(runs))).Round(time.Millisecond), runs[0].TestWindows)
		}
		for _, view := range views {
			if err := view(kr, w); err != nil {
				return err
			}
		}
	}
	return nil
}
