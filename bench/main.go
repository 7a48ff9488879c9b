// Command bench is the repository's end-to-end benchmark: it builds the two
// paper systems, serves their remote tiers on loopback TCP from this
// process, and drives Session.Detect / DetectBatch from two devices under
// five workloads. See README.md beside this file.
//
//	go run -C bench . -workload uni_cloud_closed -seed 1 -seconds 12 -trace 0
//	go run -C bench . -workload all -out run.jsonl
//	go run -C bench . -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/mat"
)

// record is one run as written to the -out file, one JSON object per line.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     int                `json:"trace"`
	Env       environment        `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Warnings  []string           `json:"warnings,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

// gcPercent is the collector's target for the benchmark's process, GOGC. The
// device, both tier nodes and the generator share one heap of about 4 MB
// live, and the multivariate workloads allocate over 1 GB/s, so at the
// default of 100 the collector runs 100 to 260 cycles a second. Every timing
// then rides on how those cycles happen to fall: within one 15 s run the
// median latency and the CPU per window of 0.25 s rounds moved by ±25 %, and
// ten runs of the same code spread their p99 by a third. At 1000 (a heap of
// about 50 MB, 3 to 16 cycles a second) the rounds of a quiet run stay within
// ±5 %. Collections still happen inside the timed rounds, and allocation is
// gated by its own two metrics.
const gcPercent = 1000

// environment is echoed with every run, so that numbers are never read
// without the box and the settings they came from.
type environment struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GCPercent  int    `json:"gc_percent"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"mat_kernel"`
	Devices    int    `json:"devices"`
	BuildSeed  int64  `json:"build_seed"`
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed of the window order and the arrival schedule")
		seconds  = flag.Int("seconds", 15, "measured time per run")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run; -1: both")
		out      = flag.String("out", "", "append each run to this file as a JSON line")
		traceOut = flag.String("trace-out", filepath.Join(".bench_build", "trace"), "directory the traced runs' spans are written to, one JSON-lines file per workload")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments, applying the bounds in the -spec file")
		spec     = flag.String("spec", "BENCHMARK.json", "benchmark description the bounds are read from")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.jsonl b.jsonl")
		}
		worse, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 {
		fatal("-seconds must be at least 1")
	}
	debug.SetGCPercent(gcPercent)
	run := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal("unknown workload %q", *name)
		}
		run = []workload{w}
	}
	env := environment{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), GCPercent: gcPercent, NumCPU: runtime.NumCPU(),
		Kernel: mat.KernelName(), Devices: devices, BuildSeed: buildSeed,
	}
	fmt.Printf("env: %s GOMAXPROCS=%d GOGC=%d nproc=%d mat.kernel=%s devices=%d seed=%d build-seed=%d seconds=%d\n",
		env.Go, env.GOMAXPROCS, env.GCPercent, env.NumCPU, env.Kernel, devices, *seed, buildSeed, *seconds)

	length := time.Duration(*seconds) * time.Second
	var last record
	allCorrect := true
	for _, w := range run {
		for _, mode := range []int{0, 1} {
			if *trace >= 0 && *trace != mode {
				continue
			}
			var (
				res *result
				err error
			)
			if mode == 0 {
				res, err = measureEndToEnd(w, *seed, length)
			} else {
				var bufs []*spanBuf
				if res, bufs, err = measureLayers(w, *seed, length); err == nil {
					err = writeSpans(filepath.Join(*traceOut, w.name+".jsonl"), w.name, bufs)
				}
			}
			if err != nil {
				fatal("%s: %v", w.name, err)
			}
			last = record{
				Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: mode, Env: env,
				Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed,
				Problems: res.problems, Warnings: res.warnings, Notes: res.notes, Metrics: res.metrics,
			}
			for _, m := range defsOf(mode) {
				if _, ok := res.metrics[m.name]; !ok {
					fatal("%s: metric %s was not measured", w.name, m.name)
				}
			}
			allCorrect = allCorrect && last.Correct
			printRecord(last)
			if *out != "" {
				if err := appendRecord(*out, last); err != nil {
					fatal("%v", err)
				}
			}
		}
	}
	if len(run) == 1 && *trace >= 0 {
		// The driver's protocol: the last line is the run as one JSON object.
		fmt.Println(driverLine(last))
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// printRecord prints every metric of a run by name, with its unit, the
// number of samples behind it and, for per-round metrics, the rounds' range.
func printRecord(r record) {
	fmt.Printf("\n%s  trace=%d  attempted=%d failed=%d correct=%v\n", r.Workload, r.Trace, r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	for _, p := range r.Warnings {
		fmt.Printf("  WARNING: %s\n", p)
	}
	for _, p := range r.Notes {
		fmt.Printf("  note: %s\n", p)
	}
	for _, m := range defsOf(r.Trace) {
		s := r.Metrics[m.name]
		line := fmt.Sprintf("  %-32s %14.6g %-10s n=%d", m.name, s.Value, s.Unit, s.N)
		if len(s.Rounds) > 1 {
			line += fmt.Sprintf("  rounds %.6g–%.6g", s.Min, s.Max)
		}
		fmt.Println(line)
	}
}

// defsOf lists the metrics a run of the given mode reports.
func defsOf(trace int) []metric {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// driverLine renders a run the way the benchmark driver reads it.
func driverLine(r record) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, s := range r.Metrics {
		line.Metrics[name] = value{s.Value, s.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal("%v", err)
	}
	return string(b)
}

func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s, line %d: %w", path, i+1, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// minRuns is how many runs of a workload a file must hold for the spread to
// be taken across runs, as the repeatability criterion does; with fewer it
// is taken across the rounds inside the runs.
const minRuns = 4

// series gathers one end-to-end metric of one workload from a file: the
// value of each run, and the values the spread is taken over.
func series(recs []record, workload, metric string) (runs, spreadOver []float64) {
	var rounds []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if s, ok := r.Metrics[metric]; ok {
			runs = append(runs, s.Value)
			rounds = append(rounds, s.Rounds...)
		}
	}
	if len(runs) >= minRuns {
		return runs, runs
	}
	return runs, rounds
}

// compareFiles prints one row per end-to-end metric and workload: the
// medians of base and candidate, by how much the candidate is worse, and
// the verdict — ok, worse (beyond the metric's bound), or unresolved when
// either side's own spread exceeds the bound, unless every candidate run
// reads better than every base run. It reports whether any row is worse.
func compareFiles(w *os.File, specPath, basePath, candPath string) (anyWorse bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	base, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readRecords(candPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-24s %-18s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "base", "candidate", "worse", "spread", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			bRuns, bOver := series(base, wl.Name, m.Name)
			cRuns, cOver := series(cand, wl.Name, m.Name)
			if len(bRuns) == 0 || len(cRuns) == 0 {
				continue
			}
			v := judge(m.Better, m.Bound, bRuns, cRuns, bOver, cOver)
			anyWorse = anyWorse || v.verdict == "worse"
			fmt.Fprintf(w, "%-24s %-18s %12.6g %12.6g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, v.base, v.cand, 100*v.worse, 100*v.baseSpread, 100*v.candSpread, 100*m.Bound, v.verdict)
		}
	}
	return anyWorse, nil
}

type judgement struct {
	base, cand, worse      float64
	baseSpread, candSpread float64
	verdict                string
}

// judge applies one metric's bound to two sets of runs.
func judge(better string, bound float64, baseRuns, candRuns, baseOver, candOver []float64) judgement {
	j := judgement{
		base: median(baseRuns), cand: median(candRuns),
		baseSpread: spread(baseOver), candSpread: spread(candOver),
	}
	j.worse = worseBy(better, j.base, j.cand)
	switch {
	case j.baseSpread > bound || j.candSpread > bound:
		j.verdict = "unresolved"
		if allBetter(better, baseRuns, candRuns) {
			j.verdict = "ok"
		}
	case j.worse > bound:
		j.verdict = "worse"
	default:
		j.verdict = "ok"
	}
	return j
}

// allBetter reports whether every candidate run reads better than every
// base run.
func allBetter(better string, baseRuns, candRuns []float64) bool {
	b, c := sortedCopy(baseRuns), sortedCopy(candRuns)
	if better == "higher" {
		return c[0] > b[len(b)-1]
	}
	return c[len(c)-1] < b[0]
}
