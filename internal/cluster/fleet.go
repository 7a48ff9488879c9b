package cluster

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/autoscale"
	"repro/internal/hec"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// The fleet engine is the one load generator. RunFleet runs a list of
// Cohorts concurrently — every cohort with its own scheme, size, batch
// size, reward weight and arrival pattern, so all six HEC schemes can be
// live against the same serving plane at once. Device w of a cohort's n
// starts its passes at sample w·len/n, so the devices hit different
// windows at any instant and every count is a pure function of the
// fleet. A run folds the routing layer's per-replica counters into the
// result (FleetStats.Total.Tiers), and can run under a scripted fault
// Scenario with autoscalers scoped to it.

// Cohort is one sub-fleet of simulated devices: every member routes with
// the same scheme, dispatches with the same batch size, and paces itself
// by the same arrival pattern.
type Cohort struct {
	// Name labels the cohort in stats; empty defaults to Scheme.String().
	Name string
	// Scheme is the routing scheme every device in the cohort uses.
	Scheme Scheme
	// Devices is the number of concurrent devices (< 1 means 1). Each runs
	// on its own goroutine.
	Devices int
	// Rounds is how many passes over the sample set each device makes
	// (< 1 means 1).
	Rounds int
	// BatchSize > 1 makes each device ship that many windows per request
	// through Device.RunBatch (one wire round trip and one vectorised
	// detection pass per batch); smaller values keep per-window dispatch.
	// Verdicts and routing are identical either way; only the delay
	// accounting changes, with each batch's network time shared across its
	// windows.
	BatchSize int
	// Alpha is the delay-cost weight of the cohort's per-window reward.
	Alpha float64
	// Pattern modulates the cohort's arrival pacing; nil streams as fast
	// as the serving plane allows (the closed-loop default).
	Pattern workload.Pattern
}

// Label returns the cohort's display name: Name, or Scheme.String().
func (c Cohort) Label() string {
	if c.Name != "" {
		return c.Name
	}
	return c.Scheme.String()
}

// validateCohorts rejects a fleet the engine could not run or report:
// no cohorts, an unknown scheme, a negative reward weight, or two cohorts
// with the same label. Sizing fields are clamped instead.
func validateCohorts(cohorts []Cohort) error {
	if len(cohorts) == 0 {
		return fmt.Errorf("cluster: a fleet needs at least one cohort")
	}
	seen := make(map[string]bool, len(cohorts))
	for _, c := range cohorts {
		if !slices.Contains(AllSchemes(), c.Scheme) {
			return fmt.Errorf("cluster: cohort %q has unknown scheme %d", c.Label(), int(c.Scheme))
		}
		if c.Alpha < 0 {
			return fmt.Errorf("cluster: cohort %q has negative alpha %g", c.Label(), c.Alpha)
		}
		if seen[c.Label()] {
			return fmt.Errorf("cluster: duplicate cohort label %q", c.Label())
		}
		seen[c.Label()] = true
	}
	return nil
}

// FleetConfig parameterises one fleet run.
type FleetConfig struct {
	// Cohorts are the concurrent sub-fleets; at least one is required.
	Cohorts []Cohort
	// BaseInterval is the inter-arrival gap at intensity 1 for patterned
	// cohorts; 0 disables pacing (closed loop) while still sampling each
	// cohort's pattern.
	BaseInterval time.Duration
	// Scenario, if set, scripts fault injection against the run.
	Scenario *Scenario
	// Autoscalers are elastic-tier control loops scoped to this run:
	// RunFleet starts each before traffic flows and stops its loop when the
	// run ends (spawned replicas keep serving until the controller's Close
	// drains them), folding each final Status into FleetStats.Scale.
	Autoscalers []*autoscale.Controller
}

// FleetStats is a fleet run's result: one Stats per cohort, in cohort
// order, plus the fleet-wide total, which also carries the run's tier
// routing deltas.
type FleetStats struct {
	Cohorts []*Stats
	Total   *Stats
	// Scale holds one status per FleetConfig autoscaler, snapshotted as
	// the run ended.
	Scale []autoscale.Status
}

// Report renders the per-cohort lines, the fleet total, and the tier
// routing report.
func (fs *FleetStats) Report() string {
	var b strings.Builder
	for _, st := range fs.Cohorts {
		b.WriteString(st.String())
		b.WriteByte('\n')
	}
	if len(fs.Cohorts) > 1 {
		b.WriteString(fs.Total.String())
		b.WriteByte('\n')
	}
	for _, t := range fs.Total.Tiers {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, sc := range fs.Scale {
		b.WriteString(sc.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// RunFleet runs a fleet of cohorts through dev and aggregates per-cohort
// and fleet-wide live metrics, including the routing layer's per-replica
// activity over the run. A detection error aborts the whole run.
// Cancelling ctx drains the fleet promptly (each device stops at its next
// window, and in-flight remote waits abort through the transport) and
// RunFleet returns ctx's error; a scripted scenario whose events cannot
// all fire before the run ends is an error too.
func RunFleet(ctx context.Context, dev *Device, samples []hec.Sample, cfg FleetConfig) (*FleetStats, error) {
	if err := validateCohorts(cfg.Cohorts); err != nil {
		return nil, err
	}
	if dev == nil {
		return nil, fmt.Errorf("cluster: load generation needs a device")
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("cluster: load generation needs samples")
	}

	tiersBefore := TierStatuses(dev)
	var windows atomic.Int64
	start := time.Now()
	var runner *scenarioRunner
	if cfg.Scenario != nil {
		runner = cfg.Scenario.start(start, &windows)
	}
	for _, ctl := range cfg.Autoscalers {
		ctl.Start()
	}

	// One goroutine per device, across every cohort, so cohorts genuinely
	// contend for the serving plane.
	type job struct{ cohort, worker int }
	var jobs []job
	for ci, c := range cfg.Cohorts {
		for w := 0; w < max(1, c.Devices); w++ {
			jobs = append(jobs, job{ci, w})
		}
	}
	perJob, err := parallel.MapCtx(ctx, len(jobs), len(jobs), func(i int) (*workerStats, error) {
		j := jobs[i]
		return runCohortDevice(ctx, dev, samples, cfg.Cohorts[j.cohort], j.worker, cfg.BaseInterval, start, &windows, runner)
	})
	elapsed := time.Since(start)
	var scErr error
	if runner != nil {
		scErr = runner.stop()
	}
	// Stop only the loops: spawned replicas keep serving (and keep their
	// counters) until the owning controller's Close drains them.
	for _, ctl := range cfg.Autoscalers {
		ctl.Stop()
	}
	if err != nil {
		return nil, err
	}
	if scErr != nil {
		return nil, scErr
	}

	fs := &FleetStats{Total: &Stats{Name: "fleet", Elapsed: elapsed}}
	if cfg.Scenario != nil && cfg.Scenario.Name != "" {
		fs.Total.Name = cfg.Scenario.Name
	}
	for _, c := range cfg.Cohorts {
		fs.Cohorts = append(fs.Cohorts, &Stats{Name: c.Label(), Elapsed: elapsed})
	}
	for i, ws := range perJob {
		for _, st := range []*Stats{fs.Cohorts[jobs[i].cohort], fs.Total} {
			st.Devices++
			st.merge(ws)
		}
	}
	fs.Total.Tiers = tierDeltas(tiersBefore, TierStatuses(dev))
	for _, ctl := range cfg.Autoscalers {
		fs.Scale = append(fs.Scale, ctl.Status())
	}
	return fs, nil
}

// pace waits out the pattern-modulated inter-arrival gap before the next
// dispatch. The pattern is sampled even when base is 0 (no pacing), so
// generator overhead is identical paced or not — that invariant is what
// the workload-overhead benchmark measures.
func pace(ctx context.Context, p workload.Pattern, base time.Duration, start time.Time) error {
	if p == nil {
		return nil
	}
	gap := workload.Gap(p, time.Since(start), base)
	if gap <= 0 {
		return nil
	}
	t := time.NewTimer(gap)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// runCohortDevice is device w's run in cohort c: Rounds passes over the
// sample set from offset w·len/Devices, paced by the cohort's pattern,
// dispatching per window or per batch. Each completed window counts in
// windows and is reported to the scenario runner (nil without one).
func runCohortDevice(ctx context.Context, dev *Device, samples []hec.Sample, c Cohort, w int, base time.Duration, start time.Time, windows *atomic.Int64, runner *scenarioRunner) (*workerStats, error) {
	ws := &workerStats{}
	offset := w * len(samples) / max(1, c.Devices)
	size := max(1, c.BatchSize)
	wins := make([][][]float64, 0, size)
	labels := make([]bool, 0, size)
	var one [1]Outcome
	done := ctx.Done()
	for r := 0; r < max(1, c.Rounds); r++ {
		for k := 0; k < len(samples); k += size {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
			if err := pace(ctx, c.Pattern, base, start); err != nil {
				return nil, err
			}
			wins, labels = wins[:0], labels[:0]
			for j := k; j < min(k+size, len(samples)); j++ {
				s := samples[(offset+j)%len(samples)]
				wins = append(wins, s.Frames)
				labels = append(labels, s.Label)
			}
			outs := one[:]
			var err error
			if len(wins) == 1 {
				one[0], err = dev.Run(ctx, c.Scheme, wins[0])
			} else {
				outs, err = dev.RunBatch(ctx, c.Scheme, wins)
			}
			if err != nil {
				return nil, fmt.Errorf("cluster: cohort %q device %d window %d: %w", c.Label(), w, k, err)
			}
			for j, out := range outs {
				ws.account(out, labels[j], c.Alpha)
				runner.reached(windows.Add(1))
			}
		}
	}
	return ws, nil
}
