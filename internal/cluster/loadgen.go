package cluster

import (
	"fmt"
	"time"

	"repro/internal/hec"
	"repro/internal/metrics"
	"repro/internal/policy"
)

// Stats aggregates one cohort's devices, or a whole fleet's, over a run.
type Stats struct {
	// Name labels the stats line: the cohort's label, or the fleet's (or
	// its scenario's) name on the total.
	Name    string
	Devices int
	// Windows is the total number of windows detected.
	Windows int
	// Confusion holds live detection counts against ground truth.
	Confusion metrics.Confusion
	// Delays aggregates per-window end-to-end delays; use Percentile for
	// p50/p95/p99.
	Delays metrics.DelayStats
	// Reward accumulates the paper's per-window reward.
	Reward metrics.RewardSum
	// LayerCounts is how many windows each layer resolved.
	LayerCounts [hec.NumLayers]int
	// Elapsed is the wall-clock duration of the whole run.
	Elapsed time.Duration
	// Tiers, set on the fleet total only, reports what the routing layer
	// did over the run, one entry per remote tier that exposes
	// introspection (see StatusSource): the per-replica routing mix,
	// failure/expel/readmit counts and admission sheds, all as deltas over
	// the run.
	Tiers []TierStatus
}

// Accuracy returns the live detection accuracy.
func (st *Stats) Accuracy() float64 { return st.Confusion.Accuracy() }

// Throughput returns windows per second over the whole run.
func (st *Stats) Throughput() float64 {
	if st.Elapsed <= 0 {
		return 0
	}
	return float64(st.Windows) / st.Elapsed.Seconds()
}

// LayerMix returns the fraction of windows resolved per layer.
func (st *Stats) LayerMix() [hec.NumLayers]float64 {
	var mix [hec.NumLayers]float64
	if st.Windows == 0 {
		return mix
	}
	for l, n := range st.LayerCounts {
		mix[l] = float64(n) / float64(st.Windows)
	}
	return mix
}

// String renders the one-line summary used by the examples.
func (st *Stats) String() string {
	mix := st.LayerMix()
	return fmt.Sprintf("%-12s acc=%.3f p50=%6.1fms p95=%6.1fms p99=%6.1fms mix=[%.2f %.2f %.2f] %6.1f win/s reward=%.3f",
		st.Name, st.Accuracy(),
		st.Delays.Percentile(50), st.Delays.Percentile(95), st.Delays.Percentile(99),
		mix[0], mix[1], mix[2], st.Throughput(), st.Reward.Mean())
}

// workerStats is one device goroutine's private accumulator, merged into the
// run total afterwards so the hot loop takes no locks.
type workerStats struct {
	confusion   metrics.Confusion
	delays      metrics.DelayStats
	reward      metrics.RewardSum
	layerCounts [hec.NumLayers]int
	windows     int
}

// account folds one window's outcome into the accumulator.
func (ws *workerStats) account(out Outcome, label bool, alpha float64) {
	correct := out.Verdict.Anomaly == label
	ws.confusion.Add(out.Verdict.Anomaly, label)
	ws.delays.Add(out.DelayMs)
	ws.reward.Add(policy.Reward(correct, alpha, out.DelayMs))
	ws.layerCounts[out.Layer]++
	ws.windows++
}

// merge folds a worker's accumulator into the aggregate.
func (st *Stats) merge(ws *workerStats) {
	st.Confusion.Merge(ws.confusion)
	st.Delays.Merge(&ws.delays)
	st.Reward.Merge(ws.reward)
	st.Windows += ws.windows
	for l, n := range ws.layerCounts {
		st.LayerCounts[l] += n
	}
}
