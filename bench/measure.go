package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro"
)

// metric names one reported number; the two tables below are the benchmark's
// contract and BENCHMARK.json repeats them.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"windows_per_s", "windows/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_us_per_window", "us"},
	{"allocs_per_window", "count"},
	{"bytes_per_window", "bytes"},
	{"setup_s", "s"},
}

var perLayer = []metric{
	{"gen.sent", "count"}, {"gen.ok", "count"}, {"gen.failed", "count"},
	{"gen.late_p99_ms", "ms"}, {"gen.backlog_max", "count"}, {"gen.backlog_end", "count"},
	{"session.call_us", "us"}, {"session.self_us", "us"}, {"session.self_share", "ratio"},
	{"cluster.self_us", "us"},
	{"cluster.layer_share_iot", "ratio"}, {"cluster.layer_share_edge", "ratio"}, {"cluster.layer_share_cloud", "ratio"},
	{"cluster.tiers_tried_mean", "count"},
	{"features.context_us", "us"}, {"features.self_share", "ratio"},
	{"policy.probs_us", "us"},
	{"routing.detect_us", "us"}, {"routing.self_us", "us"}, {"routing.wire_share", "ratio"},
	{"routing.requests", "count"}, {"routing.failures", "count"}, {"routing.busy", "count"}, {"routing.shed", "count"},
	{"transport.roundtrip_us", "us"}, {"transport.wire_idle_us", "us"}, {"transport.wire_loaded_us", "us"},
	{"transport.request_bytes", "bytes"}, {"transport.response_bytes", "bytes"}, {"transport.evicted_conns", "count"},
	{"codec.encode_request_us", "us"}, {"codec.decode_request_us", "us"},
	{"codec.encode_response_us", "us"}, {"codec.decode_response_us", "us"}, {"codec.allocs_per_roundtrip", "count"},
	{"sched.acquire_release_us", "us"},
	{"sched.admitted", "count"}, {"sched.busy", "count"}, {"sched.expired", "count"}, {"sched.canceled", "count"},
	{"detector.iot_us", "us"}, {"detector.edge_us", "us"}, {"detector.cloud_us", "us"},
	{"detector.self_share", "ratio"}, {"detector.allocs_per_window", "count"},
	{"nn.forward_us", "us"}, {"rnn.reconstruct_us", "us"},
	{"anomaly.score_us", "us"}, {"anomaly.allocs_per_window", "count"},
	{"mat.flops_per_window", "flops"}, {"mat.gflops", "gflop/s"},
	{"runtime.gc_cycles_per_kwindow", "count"}, {"runtime.gc_pause_ms_per_s", "ms/s"},
	{"trace.spans", "count"}, {"trace.overhead_share", "ratio"}, {"trace.self_sum_share", "ratio"},
}

// roundLength is what the measured time is cut into. On a shared box other
// tenants slow a round down and never speed it up, and for tens of seconds at
// a time they slow every call of every round. Whatever pools many rounds —
// a median round, a percentile over half the run — then moves with the
// neighbours by 25–40 % between runs of the same code, and only the best
// round stays put (see README.md). So the typical call (p50), the throughput,
// the CPU cost and, where a round holds enough calls to have one, the tail
// (p99) are each read from the round that did best on it. Allocation does not
// depend on the box and is counted over the whole run.
const roundLength = 250 * time.Millisecond

// roundTailCalls is how many calls every round must hold for the p99 to be
// read per round (a sample lies beyond it then). The closed loops' rounds
// hold 400 to 2 000, so a box four times slower still reads them the same
// way; the open loop's hold 50, and its p99 is taken over the pooled calls
// of its quiet half.
const roundTailCalls = 100

// result is what one run reports.
type result struct {
	metrics   map[string]summary
	attempted int
	failed    int
	problems  []string // failed correctness and conservation checks
	warnings  []string // doubts about the measurement itself
	notes     []string // numbers printed beside the metrics, not gated
}

func (r *result) note(problems ...string) { r.problems = append(r.problems, problems...) }

func perWindow(total float64, r round) float64 {
	if r.windows == 0 {
		return 0
	}
	return total / float64(r.windows)
}

// setupRepeats is how often a measured run sets the workload up; the median
// is the reported set-up time, which one disturbed build would otherwise move.
const setupRepeats = 3

// measureEndToEnd sets the workload up setupRepeats times, keeping the last
// stack, and drives it untraced for the given time.
func measureEndToEnd(w workload, seed int64, length time.Duration) (*result, error) {
	res := &result{metrics: map[string]summary{}}
	var st *stack
	var setupS []float64
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			res.note(st.close()...)
		}
		t := time.Now()
		var err error
		if st, err = newStack(w, seed, false); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	var (
		wps, p50, cpu []float64
		perRound      [][]float64 // every round's latencies
		whole         round
	)
	for i := 0; i < int(length/roundLength); i++ {
		r := st.run(st.devs, roundLength, 0, i)
		res.tally(r)
		wps = append(wps, float64(r.windows)/r.wall.Seconds())
		p50 = append(p50, median(r.latMs))
		cpu = append(cpu, perWindow(float64(r.usage.cpu)/1e3, r))
		perRound = append(perRound, r.latMs)
		whole.add(r)
	}
	res.note(st.close()...)

	calls := len(whole.latMs)
	res.metrics["windows_per_s"] = ofRounds("windows/s", calls, wps, highest)
	res.metrics["latency_p50_ms"] = ofRounds("ms", calls, p50, lowest)
	res.metrics["cpu_us_per_window"] = ofRounds("us", calls, cpu, lowest)
	res.metrics["allocs_per_window"] = single("count", whole.windows, perWindow(float64(whole.usage.mallocs), whole))
	res.metrics["bytes_per_window"] = single("bytes", whole.windows, perWindow(float64(whole.usage.bytes), whole))
	res.metrics["setup_s"] = ofRounds("s", len(setupS), setupS, median)

	res.metrics["latency_p99_ms"] = tailOf(perRound)
	if n := res.metrics["latency_p99_ms"].N; !supported(n, 99) {
		res.warnings = append(res.warnings, fmt.Sprintf("the p99 rests on %d calls: fewer than ten beyond it; run longer", n))
	}
	all := sortedCopy(whole.latMs)
	res.notes = append(res.notes, fmt.Sprintf("all %d calls, noisy rounds included: p99 %.6g ms, p99.9 %.6g ms", calls, percentile(all, 99), percentile(all, 99.9)))
	return res, nil
}

// tailOf is a run's p99 latency. When every round holds roundTailCalls calls
// it is the lowest of the rounds' own p99s, like the other best-round
// metrics. Otherwise it is the p99 over the quiet half of the rounds pooled.
func tailOf(rounds [][]float64) summary {
	var p99s []float64
	calls := 0
	for _, r := range rounds {
		if len(r) < roundTailCalls {
			quiet := quietHalf(rounds)
			return single("ms", len(quiet), percentile(quiet, 99))
		}
		p99s = append(p99s, percentile(sortedCopy(r), 99))
		calls += len(r)
	}
	return ofRounds("ms", calls, p99s, lowest)
}

// quietHalf pools, sorted, the calls of the half of the rounds with the
// lowest mean latency (the larger half of an odd count). A neighbour's burst
// of a few milliseconds slows a handful of a round's calls, which moves the
// round's mean and its tail and leaves its median alone: ranked by the median
// such rounds were kept and the tail measured the neighbours. What the
// program does in every round — collections, queueing behind a burst of
// arrivals — stays in; a stall of its own that hits fewer than half of the
// rounds does not, so the p99 over all calls is printed beside it.
func quietHalf(rounds [][]float64) []float64 {
	ranked := append([][]float64(nil), rounds...)
	sort.SliceStable(ranked, func(a, b int) bool { return mean(ranked[a]) < mean(ranked[b]) })
	var pooled []float64
	for _, r := range ranked[:(len(ranked)+1)/2] {
		pooled = append(pooled, r...)
	}
	sort.Float64s(pooled)
	return pooled
}

func (res *result) tally(r round) {
	res.attempted += r.calls
	res.failed += r.failed
	if r.failed > 0 {
		res.note(fmt.Sprintf("%d of %d calls failed: %s", r.failed, r.calls, r.firstFailure))
	}
}

// tracePairs is how many short untraced and traced rounds a traced run
// alternates. Tracing overhead is the median over the pairs, because on a
// shared box two rounds a second apart differ by more than tracing costs.
const tracePairs = 8

// measureLayers drives the workload untraced and behind the tracing
// wrappers, a third of the time each in alternating short rounds, and spends
// the last third replaying its windows one level down. It returns every
// per-layer metric and the traced devices' spans.
func measureLayers(w workload, seed int64, length time.Duration) (*result, []*spanBuf, error) {
	st, err := newStack(w, seed, true)
	if err != nil {
		return nil, nil, err
	}
	res := &result{metrics: map[string]summary{}}
	defer func() { res.note(st.close()...) }()
	put := func(name string, n int, v float64) {
		for _, m := range perLayer {
			if m.name == name {
				res.metrics[name] = single(m.unit, n, v)
				return
			}
		}
		panic("unlisted per-layer metric " + name)
	}

	for _, dv := range st.traced {
		dv.buf.spans = dv.buf.spans[:0] // drop the warm-up's spans
	}
	var (
		plain, traced round
		count         counters // what the traced rounds added to the program's counters
		overheads     []float64
		backlogEnd    int // the worst round's
	)
	for i := 0; i < tracePairs; i++ {
		p := st.run(st.devs, length/3/tracePairs, 0, 2*i)
		before := st.counters()
		t := st.run(st.traced, length/3/tracePairs, 0, 2*i+1)
		count.addSince(before, st.counters())
		// What tracing costs: throughput lost in a closed loop; in an open
		// loop, where the rate is fixed, latency gained.
		if w.rate > 0 {
			overheads = append(overheads, median(t.latMs)/median(p.latMs)-1)
		} else {
			overheads = append(overheads, 1-(float64(t.windows)/t.wall.Seconds())/(float64(p.windows)/p.wall.Seconds()))
		}
		plain.add(p)
		traced.add(t)
		backlogEnd = max(backlogEnd, t.backlogEnd)
	}
	res.tally(plain)
	res.tally(traced)

	var lt layerTimes
	var bufs []*spanBuf
	for _, dv := range st.traced {
		lt.add(dv.buf.spans)
		bufs = append(bufs, dv.buf)
	}
	med := func(n spanName) (float64, int) { return median(lt.durUs[n]), len(lt.durUs[n]) }

	put("gen.sent", traced.calls, float64(traced.calls))
	put("gen.ok", traced.calls, float64(traced.calls-traced.failed))
	put("gen.failed", traced.calls, float64(traced.failed))
	put("gen.late_p99_ms", len(traced.lateMs), percentile(sortedCopy(traced.lateMs), 99))
	put("gen.backlog_max", len(traced.lateMs), float64(traced.backlogMax))
	put("gen.backlog_end", len(traced.lateMs), float64(backlogEnd))

	call, calls := med(spanSession)
	put("session.call_us", calls, call)
	put("session.self_us", calls, median(lt.selfUs[spanSession]))
	put("session.self_share", calls, lt.selfShare(spanSession))
	judged := 0
	for _, n := range traced.layers {
		judged += n
	}
	for l, name := range []string{"cluster.layer_share_iot", "cluster.layer_share_edge", "cluster.layer_share_cloud"} {
		put(name, judged, float64(traced.layers[l])/math.Max(1, float64(judged)))
	}
	put("cluster.tiers_tried_mean", calls, float64(lt.tiersTried)/math.Max(1, float64(calls)))
	ctxUs, n := med(spanFeatures)
	put("features.context_us", n, ctxUs)
	put("features.self_share", n, lt.selfShare(spanFeatures))
	for name, sp := range map[string]spanName{
		"detector.iot_us": spanDetectorIoT, "detector.edge_us": spanDetectorEdge, "detector.cloud_us": spanDetectorCloud,
	} {
		us, n := med(sp)
		put(name, n, us)
	}
	put("detector.self_share", calls, lt.selfShare(spanDetectorIoT, spanDetectorEdge, spanDetectorCloud))
	// A routing span's self time is what the call spent outside the tier
	// node: routing, pool, codec, both TCP directions and the node's
	// scheduler — NetMs as the program reports it.
	put("routing.wire_share", calls, lt.selfShare(spanRoutingEdge, spanRoutingCloud))
	routeUs, routes := med(spanRoutingCloud)
	put("routing.detect_us", routes, routeUs)
	for name, c := range map[string]int{
		"routing.requests": cRequests, "routing.failures": cFailures, "routing.busy": cRoutingBusy, "routing.shed": cShed,
		"transport.evicted_conns": cEvicted,
		"sched.admitted":          cAdmitted, "sched.busy": cSchedBusy, "sched.expired": cExpired, "sched.canceled": cCanceled,
	} {
		put(name, routes, float64(count[c]))
	}
	if spans := len(lt.durUs[spanRoutingEdge]) + routes; count[cRequests] != uint64(spans) {
		res.note(fmt.Sprintf("traced rounds: routing.requests = %d but %d routing spans", count[cRequests], spans))
	}

	var loaded []float64
	for _, net := range plain.netMs {
		if net > 0 {
			loaded = append(loaded, net*1e3)
		}
	}
	put("transport.wire_loaded_us", len(loaded), median(loaded))
	put("runtime.gc_cycles_per_kwindow", plain.windows, perWindow(float64(plain.usage.gcCycles)*1e3, plain))
	put("runtime.gc_pause_ms_per_s", plain.windows, ms(plain.usage.gcPause)/plain.wall.Seconds())
	put("trace.spans", lt.spans, float64(lt.spans))
	sum := lt.selfShare(spanSession, spanFeatures, spanDetectorIoT, spanRoutingEdge, spanRoutingCloud, spanDetectorEdge, spanDetectorCloud)
	put("trace.self_sum_share", calls, sum)
	if math.Abs(sum-1) > 0.10 {
		res.note(fmt.Sprintf("traced self times sum to %.3f of the root spans", sum))
	}
	put("trace.overhead_share", tracePairs, median(overheads))

	budget := length / 3 / 6
	rtUs, wireUs, n, err := st.replayTransport(budget)
	if err != nil {
		return nil, nil, err
	}
	put("transport.roundtrip_us", n, rtUs)
	put("transport.wire_idle_us", n, wireUs)
	put("routing.self_us", routes, math.Max(0, routeUs-rtUs))
	ct, err := st.replayCodec(budget)
	if err != nil {
		return nil, nil, err
	}
	put("transport.request_bytes", 1, float64(ct.requestBytes))
	put("transport.response_bytes", 1, float64(ct.responseBytes))
	put("codec.encode_request_us", ct.n, ct.encodeReqUs)
	put("codec.decode_request_us", ct.n, ct.decodeReqUs)
	put("codec.encode_response_us", ct.n, ct.encodeRespUs)
	put("codec.decode_response_us", ct.n, ct.decodeRespUs)
	put("codec.allocs_per_roundtrip", 200, ct.allocsPerRoundtrip)
	us, n, err := st.replaySched(budget)
	if err != nil {
		return nil, nil, err
	}
	put("sched.acquire_release_us", n, us)
	us, n = 0, 0
	if w.scheme == repro.SchemeAdaptive {
		if us, n, err = st.replayPolicy(budget); err != nil {
			return nil, nil, err
		}
	}
	put("policy.probs_us", n, us)
	if us, n, err = st.replayCluster(budget); err != nil {
		return nil, nil, err
	}
	put("cluster.self_us", n, us)
	dt, err := st.replayDetector(budget)
	if err != nil {
		return nil, nil, err
	}
	put("detector.allocs_per_window", 50, dt.detectAllocs)
	nnUs, rnnUs := dt.forwardUs, 0.0
	if st.sys.Deployment.Recurrent {
		nnUs, rnnUs = 0, dt.forwardUs
	}
	put("nn.forward_us", dt.n, nnUs)
	put("rnn.reconstruct_us", dt.n, rnnUs)
	put("anomaly.score_us", dt.n, math.Max(0, dt.detectUs-dt.forwardUs))
	put("anomaly.allocs_per_window", 50, dt.detectAllocs-dt.forwardAllocs)
	put("mat.flops_per_window", 1, float64(dt.flops))
	put("mat.gflops", dt.n, float64(dt.flops)/(dt.forwardUs*1e3))
	return res, bufs, nil
}
