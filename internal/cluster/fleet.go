package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/autoscale"
	"repro/internal/hec"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// The fleet engine: one run over a heterogeneous device fleet. Cohort
// mode runs workload.Cohorts concurrently — every cohort with its own
// scheme, size, batch size, reward weight and arrival pattern, so all six
// HEC schemes can be live against the same serving plane at once. Trace
// mode replays a recorded workload.Trace instead: each recorded device
// becomes a goroutine re-issuing its windows on the recorded timeline.
// Both modes draw window contents from the run's seed, fold the routing
// layer's per-replica counters into the result (Stats.Tiers), and can run
// under a scripted fault Scenario. The legacy single-scheme Run is a thin
// wrapper over the same core.

// FleetConfig parameterises one fleet run. Exactly one of Cohorts or
// Trace must be set.
type FleetConfig struct {
	// Cohorts are the concurrent sub-fleets (cohort mode).
	Cohorts []workload.Cohort
	// Trace is a recorded fleet to replay (trace mode).
	Trace *workload.Trace
	// TraceTimeScale stretches (>1) or compresses (<1) the recorded
	// timeline; 0 replays as fast as the serving plane allows, keeping only
	// the recorded ordering per device.
	TraceTimeScale float64
	// TraceAlpha is the delay-cost weight of the per-window reward in trace
	// mode (cohort mode takes it per cohort).
	TraceAlpha float64
	// Seed determines every randomised choice the engine makes (per-device
	// sample rotation): the same seed, fleet and scenario reproduce the
	// same routing mix and confusion counts.
	Seed int64
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

// FleetStats is a fleet run's result: one Stats per cohort (or per scheme
// token in trace mode) plus the fleet-wide total, which also carries the
// run's tier routing deltas.
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

// cohortPlan is a resolved cohort: scheme parsed, sizes clamped.
type cohortPlan struct {
	label   string
	scheme  Scheme
	devices int
	rounds  int
	batch   int
	alpha   float64
	pattern workload.Pattern
	// legacyOffset keeps the historical Run contract: device w starts its
	// pass at sample w*len/devices instead of a seeded random offset.
	legacyOffset bool
}

// traceStep is one resolved trace event for one device.
type traceStep struct {
	at     time.Duration
	scheme Scheme
	tok    string
}

// fleetRun is the resolved form both public entry points hand to the
// core.
type fleetRun struct {
	plans      []cohortPlan // cohort mode iff non-empty
	traceDevs  []string
	traceSteps map[string][]traceStep
	traceAlpha float64
	traceScale float64
	seed       int64
	base       time.Duration
	scenario   *Scenario
	ctls       []*autoscale.Controller
}

// RunFleet runs a heterogeneous fleet (or replays a trace) through dev
// and aggregates per-cohort and fleet-wide live metrics, including the
// routing layer's per-replica activity over the run. Cancelling ctx
// drains the fleet promptly; a scripted scenario whose events cannot all
// fire before the run ends is an error.
func RunFleet(ctx context.Context, dev *Device, samples []hec.Sample, cfg FleetConfig) (*FleetStats, error) {
	if (len(cfg.Cohorts) > 0) == (cfg.Trace != nil) {
		return nil, fmt.Errorf("cluster: fleet config needs exactly one of Cohorts or Trace")
	}
	fr := fleetRun{
		seed:     cfg.Seed,
		base:     cfg.BaseInterval,
		scenario: cfg.Scenario,
		ctls:     cfg.Autoscalers,
	}
	if cfg.Trace != nil {
		if err := cfg.Trace.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		if cfg.TraceTimeScale < 0 {
			return nil, fmt.Errorf("cluster: negative trace time scale %g", cfg.TraceTimeScale)
		}
		names, byDev := cfg.Trace.Devices()
		fr.traceDevs = names
		fr.traceSteps = make(map[string][]traceStep, len(names))
		for _, name := range names {
			evs := byDev[name]
			steps := make([]traceStep, len(evs))
			for i, e := range evs {
				sch, err := ParseScheme(e.Scheme)
				if err != nil {
					return nil, fmt.Errorf("cluster: trace device %q: %w", name, err)
				}
				steps[i] = traceStep{
					at:     time.Duration(e.AtMs * float64(time.Millisecond)),
					scheme: sch,
					tok:    e.Scheme,
				}
			}
			fr.traceSteps[name] = steps
		}
		fr.traceAlpha = cfg.TraceAlpha
		fr.traceScale = cfg.TraceTimeScale
	} else {
		if err := workload.ValidateCohorts(cfg.Cohorts); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		for _, c := range cfg.Cohorts {
			sch, err := ParseScheme(c.Scheme)
			if err != nil {
				return nil, fmt.Errorf("cluster: cohort %q: %w", c.Label(), err)
			}
			p := cohortPlan{
				label:   c.Label(),
				scheme:  sch,
				devices: c.Devices,
				rounds:  c.Rounds,
				batch:   c.BatchSize,
				alpha:   c.Alpha,
				pattern: c.Pattern,
			}
			if p.devices < 1 {
				p.devices = 1
			}
			if p.rounds < 1 {
				p.rounds = 1
			}
			fr.plans = append(fr.plans, p)
		}
	}
	return runFleet(ctx, dev, samples, fr)
}

// runFleet is the core engine shared by RunFleet and the legacy Run.
func runFleet(ctx context.Context, dev *Device, samples []hec.Sample, fr fleetRun) (*FleetStats, error) {
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
	if fr.scenario != nil {
		runner = fr.scenario.start(start, &windows)
	}
	for _, ctl := range fr.ctls {
		ctl.Start()
	}

	// One goroutine per device, across every cohort (or every recorded
	// device), so cohorts genuinely contend for the serving plane.
	type job struct {
		cohort int    // index into fr.plans, or -1 in trace mode
		worker int    // device index within the cohort
		device string // trace-mode device name
	}
	var jobs []job
	if len(fr.plans) > 0 {
		for ci, p := range fr.plans {
			for w := 0; w < p.devices; w++ {
				jobs = append(jobs, job{cohort: ci, worker: w})
			}
		}
	} else {
		for _, name := range fr.traceDevs {
			jobs = append(jobs, job{cohort: -1, device: name})
		}
	}

	perJob, err := parallel.MapCtx(ctx, len(jobs), len(jobs), func(i int) (map[string]*workerStats, error) {
		j := jobs[i]
		if j.cohort >= 0 {
			ws, err := runCohortDevice(ctx, dev, samples, fr.plans[j.cohort], j.cohort, j.worker, fr.seed, fr.base, start, &windows)
			if err != nil {
				return nil, err
			}
			return map[string]*workerStats{fr.plans[j.cohort].label: ws}, nil
		}
		return runTraceDevice(ctx, dev, samples, j.device, fr.traceSteps[j.device], fr.traceScale, fr.traceAlpha, fr.seed, start, &windows)
	})
	elapsed := time.Since(start)
	var scErr error
	if runner != nil {
		scErr = runner.stop()
	}
	// Stop only the loops: spawned replicas keep serving (and keep their
	// counters) until the owning controller's Close drains them.
	for _, ctl := range fr.ctls {
		ctl.Stop()
	}
	if err != nil {
		return nil, err
	}
	if scErr != nil {
		return nil, scErr
	}

	// Merge per-label. Label order: cohort order, or sorted scheme tokens
	// (trace devices are already sorted, and tokens are collected sorted).
	byLabel := make(map[string][]*workerStats)
	devCount := make(map[string]int)
	var order []string
	seen := make(map[string]bool)
	schemeOf := make(map[string]Scheme)
	if len(fr.plans) > 0 {
		for _, p := range fr.plans {
			order = append(order, p.label)
			seen[p.label] = true
			schemeOf[p.label] = p.scheme
			devCount[p.label] = p.devices
		}
	}
	for i, parts := range perJob {
		for label, ws := range parts {
			byLabel[label] = append(byLabel[label], ws)
			if !seen[label] {
				seen[label] = true
				order = append(order, label)
			}
			if jobs[i].cohort < 0 {
				devCount[label]++
				for _, stp := range fr.traceSteps[jobs[i].device] {
					if stp.tok == label {
						schemeOf[label] = stp.scheme
						break
					}
				}
			}
		}
	}
	if len(fr.plans) == 0 {
		// Trace-mode labels surfaced in device order; make them stable.
		ordered := order[:0]
		for _, tok := range sortedStrings(order) {
			ordered = append(ordered, tok)
		}
		order = ordered
	}

	fs := &FleetStats{Total: &Stats{Scheme: "fleet", Name: "fleet", Elapsed: elapsed}}
	if fr.scenario != nil && fr.scenario.Name != "" {
		fs.Total.Name = fr.scenario.Name
	}
	for _, label := range order {
		st := &Stats{Name: label, Scheme: schemeOf[label].String(), Devices: devCount[label], Elapsed: elapsed}
		for _, ws := range byLabel[label] {
			st.merge(ws)
		}
		fs.Cohorts = append(fs.Cohorts, st)
		fs.Total.Devices += st.Devices
		fs.Total.Windows += st.Windows
		fs.Total.Confusion.Merge(st.Confusion)
		fs.Total.Delays.Merge(&st.Delays)
		fs.Total.Reward.Merge(st.Reward)
		for l, n := range st.LayerCounts {
			fs.Total.LayerCounts[l] += n
		}
	}
	fs.Total.Tiers = tierDeltas(tiersBefore, TierStatuses(dev))
	for _, ctl := range fr.ctls {
		fs.Scale = append(fs.Scale, ctl.Status())
	}
	return fs, nil
}

// sortedStrings returns a sorted copy of ss.
func sortedStrings(ss []string) []string {
	out := make([]string, len(ss))
	copy(out, ss)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
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

// mixSeed folds identifiers into a per-device RNG seed (splitmix-style)
// so every device draws an independent, reproducible stream.
func mixSeed(vs ...int64) int64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vs {
		x := uint64(v)
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		h = (h ^ x) * 0x94D049BB133111EB
	}
	return int64(h)
}

// runCohortDevice is one cohort member's run: rounds passes over the
// sample set from a device-specific offset, paced by the cohort's
// pattern, dispatching per window or per batch.
func runCohortDevice(ctx context.Context, dev *Device, samples []hec.Sample, p cohortPlan, ci, w int, seed int64, base time.Duration, start time.Time, windows *atomic.Int64) (*workerStats, error) {
	ws := &workerStats{}
	var offset int
	if p.legacyOffset {
		offset = w * len(samples) / p.devices
	} else {
		rng := rand.New(rand.NewSource(mixSeed(seed, int64(ci), int64(w))))
		offset = rng.Intn(len(samples))
	}
	size := max(1, p.batch)
	wins := make([][][]float64, 0, size)
	labels := make([]bool, 0, size)
	var one [1]Outcome
	done := ctx.Done()
	for r := 0; r < p.rounds; r++ {
		for k := 0; k < len(samples); k += size {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
			if err := pace(ctx, p.pattern, base, start); err != nil {
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
				one[0], err = dev.Run(ctx, p.scheme, wins[0])
			} else {
				outs, err = dev.RunBatch(ctx, p.scheme, wins)
			}
			if err != nil {
				return nil, fmt.Errorf("cluster: cohort %q device %d window %d: %w", p.label, w, k, err)
			}
			for j, out := range outs {
				ws.account(out, labels[j], p.alpha)
				windows.Add(1)
			}
		}
	}
	return ws, nil
}

// runTraceDevice replays one recorded device: its events in recorded
// order, on the recorded timeline when scale > 0, with window contents
// drawn from a device-seeded stream (so the replay is deterministic no
// matter how devices interleave).
func runTraceDevice(ctx context.Context, dev *Device, samples []hec.Sample, name string, steps []traceStep, scale, alpha float64, seed int64, start time.Time, windows *atomic.Int64) (map[string]*workerStats, error) {
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(mixSeed(seed, int64(h.Sum64()))))
	parts := make(map[string]*workerStats)
	done := ctx.Done()
	for i, stp := range steps {
		// The seeded draw happens before any waiting so the sample sequence
		// is a pure function of (seed, device), not of timing.
		s := samples[rng.Intn(len(samples))]
		if scale > 0 {
			target := start.Add(time.Duration(float64(stp.at) * scale))
			if d := time.Until(target); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-done:
					t.Stop()
					return nil, ctx.Err()
				case <-t.C:
				}
			}
		} else {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		out, err := dev.Run(ctx, stp.scheme, s.Frames)
		if err != nil {
			return nil, fmt.Errorf("cluster: trace device %q event %d: %w", name, i, err)
		}
		ws := parts[stp.tok]
		if ws == nil {
			ws = &workerStats{}
			parts[stp.tok] = ws
		}
		ws.account(out, s.Label, alpha)
		windows.Add(1)
	}
	return parts, nil
}
