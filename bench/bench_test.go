package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/anomaly"
	"repro/internal/hec"
	"repro/internal/policy"
	"repro/internal/transport"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {1, 1}, {100, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7, 9}, 50); got != 7 {
		t.Errorf("percentile of two at 50 = %v, want the lower", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of none = %v", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{1000, 99, true}, {999, 99, false}, {20, 50, true}, {19, 50, false}, {10000, 99.9, true}, {1200, 99.9, false}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestSummaryReportsCountAndRange(t *testing.T) {
	s := ofRounds("ms", 3200, []float64{3, 1, 2}, median)
	if s.Value != 2 || s.N != 3200 || s.Min != 1 || s.Max != 3 || s.Unit != "ms" {
		t.Errorf("ofRounds = %+v", s)
	}
	if best := ofRounds("1/s", 3, []float64{3, 1, 2}, highest); best.Value != 3 || len(best.Rounds) != 3 {
		t.Errorf("ofRounds picking the highest = %+v", best)
	}
}

// A neighbour's short burst slows a few calls of a round: the round's median
// stays, its mean and tail do not. Such a round must be ranked out, while a
// tail every round has stays in.
func TestQuietHalfRanksRoundsByTheirMean(t *testing.T) {
	own := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 4}         // what the program does in every round
	disturbed := []float64{1, 1, 1, 1, 1, 1, 1, 1, 20, 30} // same median, a burst on top
	got := quietHalf([][]float64{disturbed, own, disturbed, own, own})
	if len(got) != 30 || got[len(got)-1] != 4 || got[0] != 1 {
		t.Errorf("quietHalf kept %d calls up to %v, want the 30 of the three undisturbed rounds up to 4", len(got), got[len(got)-1])
	}
	if got := quietHalf(nil); len(got) != 0 {
		t.Errorf("quietHalf of no rounds = %v", got)
	}
}

func TestTailIsTheBestRoundsWhereARoundCarriesOne(t *testing.T) {
	big := func(tail float64) []float64 {
		r := make([]float64, roundTailCalls)
		for i := range r {
			r[i] = 1
		}
		r[0], r[1] = tail, tail // the p99 of 100 calls is the second largest
		return r
	}
	s := tailOf([][]float64{big(9), big(3), big(5)})
	if s.Value != 3 || s.N != 3*roundTailCalls || len(s.Rounds) != 3 || s.Max != 9 {
		t.Errorf("tailOf rounds that carry a p99 = %+v, want the lowest of 9, 3, 5 over all calls", s)
	}
	small := [][]float64{{1, 1, 1, 8}, {1, 1, 1, 2}, {1, 1, 1, 30}}
	if s := tailOf(small); s.Value != 8 || s.N != 8 || len(s.Rounds) != 0 {
		t.Errorf("tailOf small rounds = %+v, want the p99 of the 8 calls of the two quiet rounds", s)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 2, 30})
	if q1 != 2 || q3 != 30 {
		t.Errorf("quartiles(2,10,30) = %v, %v, want 2, 30", q1, q3)
	}
	if got := spread([]float64{90, 100, 110, 100, 100}); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("spread = %v, want 0.10", got)
	}
}

func TestSelfTimeWithOverlappingAndNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: spanSession, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: spanFeatures, Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: spanDetectorIoT, Start: 30, End: 60},    // overlaps span 1 by 10
		{ID: 3, Parent: 0, Name: spanRoutingCloud, Start: 70, End: 120},  // runs past its parent
		{ID: 4, Parent: 3, Name: spanDetectorCloud, Start: 80, End: 100}, // nested
	}
	want := []int64{20, 30, 30, 30, 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSelfTimesSumToTheRootSpan(t *testing.T) {
	b := newSpanBuf(time.Now())
	rng := rand.New(rand.NewSource(1))
	for call := 0; call < 50; call++ {
		root := b.begin(spanSession)
		for k := rng.Intn(3); k >= 0; k-- {
			id := b.begin(spanRoutingCloud)
			time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
			b.end(id)
			s := b.spans[id]
			b.child(id, spanDetectorCloud, (s.End-s.Start)/2)
		}
		b.end(root)
	}
	var lt layerTimes
	lt.add(b.spans)
	all := []spanName{spanSession, spanRoutingCloud, spanDetectorCloud}
	if sum := lt.selfShare(all...); math.Abs(sum-1) > 1e-9 {
		t.Errorf("self times sum to %v of the root spans, want 1", sum)
	}
	if got := len(lt.durUs[spanSession]); got != 50 || b.seq != 50 {
		t.Errorf("%d root spans, last sequence number %d, want 50 and 50", got, b.seq)
	}
}

func TestSeedReachesTheInputs(t *testing.T) {
	order := func(seed int64) []int { return sampleOrder(seed, 62) }
	sched := func(seed int64) []time.Duration { return arrivals(seed, 1, openLoopRate, 4*time.Second) }
	if !reflect.DeepEqual(order(7), order(7)) || !reflect.DeepEqual(sched(7), sched(7)) {
		t.Error("the same seed gave different inputs")
	}
	if reflect.DeepEqual(order(7), order(8)) {
		t.Error("the window order ignores the seed")
	}
	if reflect.DeepEqual(sched(7), sched(8)) {
		t.Error("the arrival schedule ignores the seed")
	}
	if reflect.DeepEqual(sched(7), arrivals(7, 2, openLoopRate, 4*time.Second)) {
		t.Error("two rounds of one run share a schedule")
	}
	due := sched(7)
	if len(due) != 4*openLoopRate {
		t.Errorf("%d arrivals, want rate × length = %d", len(due), 4*openLoopRate)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] || due[i] >= 4*time.Second {
			t.Fatalf("arrival %d at %v is out of order or out of the round", i, due[i])
		}
	}
}

// fakeDetector judges a window by its first value alone, so that a test
// system needs no training. It counts how it was called.
type fakeDetector struct {
	tier          hec.Layer
	single, batch *atomic.Int64
}

func (d fakeDetector) verdict(w [][]float64) anomaly.Verdict {
	x := w[0][0]
	return anomaly.Verdict{Anomaly: x > 0.5, Confident: x < 0.4+0.3*float64(d.tier) || d.tier == hec.LayerCloud, MinLogPD: -x}
}

func (d fakeDetector) Name() string               { return "fake-" + d.tier.String() }
func (d fakeDetector) NumParams() int             { return 1 }
func (d fakeDetector) FlopsPerWindow(T int) int64 { return int64(T) }
func (d fakeDetector) Detect(w [][]float64) (anomaly.Verdict, error) {
	d.single.Add(1)
	return d.verdict(w), nil
}
func (d fakeDetector) DetectBatch(ws [][][]float64) ([]anomaly.Verdict, error) {
	d.batch.Add(1)
	out := make([]anomaly.Verdict, len(ws))
	for i, w := range ws {
		out[i] = d.verdict(w)
	}
	return out, nil
}

type fakeExtractor struct{}

func (fakeExtractor) Context(w [][]float64) ([]float64, error) { return []float64{w[0][0], 1}, nil }
func (fakeExtractor) Dim() int                                 { return 2 }

// fakeStack is a stack over an untrained system of fake detectors: windows
// of one value each, spread over [0, 1) so that the successive scheme uses
// every tier.
func fakeStack(t *testing.T, w workload, single, batch *atomic.Int64) *stack {
	t.Helper()
	var dets [hec.NumLayers]anomaly.Detector
	for l := range dets {
		dets[l] = fakeDetector{tier: hec.Layer(l), single: single, batch: batch}
	}
	dep, err := hec.NewDeployment(hec.DefaultTopology(), dets, false)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policy.NewNetwork(2, 4, hec.NumLayers, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	st := &stack{w: w, seed: 1, goroutines: runtime.NumGoroutine(), sys: &repro.System{Kind: repro.Univariate, Deployment: dep, Policy: pol, Extractor: fakeExtractor{}}}
	for i := 0; i < 40; i++ {
		st.windows = append(st.windows, [][]float64{{float64(i) / 40}})
	}
	st.order = sampleOrder(st.seed, len(st.windows))
	if err := st.judgeOracle(); err != nil {
		t.Fatal(err)
	}
	return st
}

// A tracing wrapper that is not batch-capable would silently turn one batch
// into a call per window; one that changed a result would measure another
// program. Traced and untraced passes must agree on every verdict, on the
// number of routed requests and on how the local detector was called.
func TestTracingWrappersDoNotChangeThePath(t *testing.T) {
	for _, batch := range []int{1, 8} {
		w := workload{name: "test", scheme: repro.SchemeSuccessive, batch: batch}
		var verdicts [2][]verdict
		var requests, singles, batches [2]int64
		for k, traced := range []bool{false, true} {
			var single, many atomic.Int64
			st := fakeStack(t, w, &single, &many)
			if err := st.serve(); err != nil {
				t.Fatal(err)
			}
			single.Store(0) // the oracle's calls
			dv, err := newDevice(st, 0, traced, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			st.devs = []*device{dv}
			ctx := context.Background()
			for i := 0; i+batch <= len(st.windows); i += batch {
				var dets []repro.Detection
				if batch == 1 {
					d, err := dv.sess.Detect(ctx, st.windows[i])
					if err != nil {
						t.Fatal(err)
					}
					dets = []repro.Detection{d}
				} else if dets, err = dv.sess.DetectBatch(ctx, st.windows[i:i+batch]); err != nil {
					t.Fatal(err)
				}
				for j, d := range dets {
					if got := verdictOf(d); got != st.oracle[i+j] {
						t.Errorf("traced=%v batch=%d window %d: %+v, oracle says %+v", traced, batch, i+j, got, st.oracle[i+j])
					}
					verdicts[k] = append(verdicts[k], verdictOf(d))
				}
				dv.remote += remoteCalls(w.scheme, dets)
			}
			c := st.counters()
			requests[k], singles[k], batches[k] = int64(c[cRequests]), single.Load(), many.Load()
			if c[cRequests] != dv.remote || c[cAdmitted] != dv.remote {
				t.Errorf("traced=%v batch=%d: routing.requests %d, sched.admitted %d, results imply %d remote calls",
					traced, batch, c[cRequests], c[cAdmitted], dv.remote)
			}
			if traced {
				var lt layerTimes
				lt.add(dv.buf.spans)
				if got := int64(len(lt.durUs[spanRoutingEdge]) + len(lt.durUs[spanRoutingCloud])); got != requests[k] {
					t.Errorf("batch=%d: %d routing spans for %d routed requests", batch, got, requests[k])
				}
			}
			st.ready = true
			if problems := st.close(); len(problems) > 0 {
				t.Errorf("traced=%v batch=%d: %v", traced, batch, problems)
			}
		}
		if !reflect.DeepEqual(verdicts[0], verdicts[1]) {
			t.Errorf("batch=%d: traced and untraced verdicts differ", batch)
		}
		if requests[0] != requests[1] || singles[0] != singles[1] || batches[0] != batches[1] {
			t.Errorf("batch=%d: untraced/traced routing.requests %v, Detect calls %v, DetectBatch calls %v",
				batch, requests, singles, batches)
		}
		if requests[0] == 0 {
			t.Errorf("batch=%d: nothing was routed, the test exercises no remote", batch)
		}
	}
}

// outage is a remote tier that answers at once, except that every call
// reaching it during the outage waits for the outage to end.
type outage struct{ from, to time.Time }

func (o *outage) DetectContext(_ context.Context, w [][]float64) (transport.DetectResult, error) {
	if now := time.Now(); now.After(o.from) && now.Before(o.to) {
		time.Sleep(o.to.Sub(now))
	}
	return transport.DetectResult{Verdict: fakeDetector{tier: hec.LayerCloud}.verdict(w)}, nil
}

// In an open loop a stall must show in the latency of the calls that fell
// due during it, because they are timed from their due instant; the
// generator must report how late it ran and how much piled up; and every
// arrival must still be attempted exactly once.
func TestOpenLoopCountsTheWaitAStallImposes(t *testing.T) {
	const stall = 50 * time.Millisecond
	w := workload{name: "test", scheme: repro.SchemeCloud, batch: 1, rate: 1000}
	var single, many atomic.Int64
	st := fakeStack(t, w, &single, &many)
	out := &outage{}
	for c := 0; c < devices; c++ {
		sess, err := st.sys.Open(w.scheme, repro.WithRemote(repro.LayerEdge, out), repro.WithRemote(repro.LayerCloud, out))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		st.devs = append(st.devs, &device{id: c, st: st, sess: sess})
	}
	const length = 400 * time.Millisecond
	out.from = time.Now().Add(100 * time.Millisecond)
	out.to = out.from.Add(stall)
	r := st.run(st.devs, length, 0, 0)

	due := arrivals(st.seed, 0, w.rate, length)
	if r.calls != len(due) || len(r.latMs) != len(due) || r.failed != 0 || r.windows != len(due) {
		t.Fatalf("%d arrivals scheduled; %d calls, %d latencies, %d windows, %d failed (%s)",
			len(due), r.calls, len(r.latMs), r.windows, r.failed, r.firstFailure)
	}
	if pos := int(st.pos.Load()); pos != len(due) {
		t.Errorf("the devices took %d windows for %d arrivals", pos, len(due))
	}
	// About rate × stall = 50 arrivals fell due during the stall; they waited
	// 25 ms on average. Timed from when they were issued, none would show.
	slow, lateSlow := 0, 0
	for i, ms := range r.latMs {
		if ms > 5 {
			slow++
		}
		if r.lateMs[i] > 5 {
			lateSlow++
		}
	}
	lat, late := sortedCopy(r.latMs), sortedCopy(r.lateMs)
	if slow < 25 || lat[len(lat)-1] < 0.8*ms(stall) {
		t.Errorf("%d calls slower than 5 ms, slowest %.1f ms: the stall is missing from the latencies", slow, lat[len(lat)-1])
	}
	if lateSlow < 20 || percentile(late, 99) < 20 {
		t.Errorf("%d calls issued more than 5 ms late, late p99 %.1f ms: the generator hides its lateness", lateSlow, percentile(late, 99))
	}
	if r.backlogMax < 20 {
		t.Errorf("backlog_max = %d, want about rate × stall = 50", r.backlogMax)
	}
	if percentile(lat, 50) > 5 {
		t.Errorf("median latency %.2f ms: the stall leaked into calls outside it", percentile(lat, 50))
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		better string
		base   []float64
		cand   []float64
		want   string
	}{
		{"same", "lower", steady, steady, "ok"},
		{"within the bound", "lower", steady, []float64{108, 109, 108, 107, 108}, "ok"},
		{"slower", "lower", steady, []float64{120, 121, 119, 120, 120}, "worse"},
		{"faster", "lower", steady, []float64{80, 81, 79, 80, 80}, "ok"},
		{"less throughput", "higher", steady, []float64{80, 81, 79, 80, 80}, "worse"},
		{"too noisy to tell", "lower", steady, []float64{80, 130, 100, 140, 90}, "unresolved"},
		{"noisy but better in every run", "lower", steady, []float64{50, 80, 60, 90, 70}, "ok"},
	} {
		if got := judge(c.better, 0.10, c.base, c.cand, c.base, c.cand).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// series takes the spread across runs when a file has enough of them, and
// across the rounds inside the runs when it does not.
func TestSeriesPicksWhatTheSpreadIsTakenOver(t *testing.T) {
	rec := func(v float64) record {
		return record{Workload: "w", Metrics: map[string]summary{"m": {Value: v, Rounds: []float64{v - 1, v, v + 1}}}}
	}
	runs, over := series([]record{rec(10), rec(20)}, "w", "m")
	if len(runs) != 2 || len(over) != 6 {
		t.Errorf("two runs: %d values, spread over %d, want 2 and 6", len(runs), len(over))
	}
	runs, over = series([]record{rec(10), rec(20), rec(30), rec(40), {Workload: "other"}, {Workload: "w", Trace: 1}}, "w", "m")
	if len(runs) != 4 || len(over) != 4 {
		t.Errorf("four runs: %d values, spread over %d, want 4 and 4", len(runs), len(over))
	}
}

// BENCHMARK.json repeats the benchmark's workloads and metrics for the
// driver; it must not drift from what the program prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end-to-end metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
	for i, m := range perLayer {
		if got := spec.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
}
