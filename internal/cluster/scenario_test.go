package cluster

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hec"
	"repro/internal/routing"
	"repro/internal/transport"
	"repro/internal/workload"
)

// fleetSamples builds the canonical half-anomalous sample set the fleet
// tests stream.
func fleetSamples(n int) []hec.Sample {
	samples := make([]hec.Sample, n)
	for i := range samples {
		samples[i] = hec.Sample{Frames: window, Label: i%2 == 0}
	}
	return samples
}

// startFleetReplica serves a stub detector on loopback for fleet tests.
func startFleetReplica(t *testing.T) *transport.Server {
	t.Helper()
	srv, err := transport.Serve("127.0.0.1:0", stubDetector{verdict: confident(true)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// waitForClusterGoroutines waits for the goroutine count to return to the
// baseline after a fleet run tears down.
func waitForClusterGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
}

// TestRunFleetHeterogeneousCohorts runs all six schemes as one fleet and
// checks each cohort's label, window count and routing mix, and the
// fleet-wide total.
func TestRunFleetHeterogeneousCohorts(t *testing.T) {
	edge := &stubRemote{verdict: confident(true), execMs: 5, netMs: 7}
	cloud := &stubRemote{verdict: confident(true), execMs: 2, netMs: 11}
	dev := testDevice(confident(true), edge, cloud)
	samples := fleetSamples(10)

	cohorts := []Cohort{
		{Scheme: SchemeIoT, Devices: 2, Rounds: 1},
		{Scheme: SchemeEdge, Devices: 2, Rounds: 2},
		{Scheme: SchemeCloud, Devices: 1, Rounds: 1, BatchSize: 4},
		{Scheme: SchemeSuccessive, Devices: 1, Rounds: 1},
		{Scheme: SchemeAdaptive, Devices: 2, Rounds: 1, Alpha: 5e-4},
		{Name: "bad-policy", Scheme: SchemePathological, Devices: 1, Rounds: 1, Alpha: 5e-4},
	}
	fs, err := RunFleet(context.Background(), dev, samples, FleetConfig{Cohorts: cohorts})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Cohorts) != len(cohorts) {
		t.Fatalf("got %d cohort stats, want %d", len(fs.Cohorts), len(cohorts))
	}
	wantTotal := 0
	for i, c := range cohorts {
		st := fs.Cohorts[i]
		if st.Name != c.Label() {
			t.Fatalf("cohort %d label = %q, want %q", i, st.Name, c.Label())
		}
		want := c.Devices * c.Rounds * len(samples)
		if st.Windows != want {
			t.Fatalf("cohort %q windows = %d, want %d", c.Label(), st.Windows, want)
		}
		wantTotal += want
		if acc := st.Accuracy(); acc != 0.5 {
			t.Fatalf("cohort %q accuracy = %g, want 0.5 (always-anomalous verdicts, half-true labels)", c.Label(), acc)
		}
	}
	if fs.Total.Windows != wantTotal {
		t.Fatalf("total windows = %d, want %d", fs.Total.Windows, wantTotal)
	}
	// Fixed schemes pin their layer; the stub policy (probs 0.1/0.7/0.2)
	// sends Adaptive to the edge, Pathological to the (confident) local
	// tier; Successive stops at the confident local verdict.
	wantLayer := map[Scheme]hec.Layer{
		SchemeIoT: hec.LayerIoT, SchemeEdge: hec.LayerEdge, SchemeCloud: hec.LayerCloud,
		SchemeSuccessive: hec.LayerIoT, SchemeAdaptive: hec.LayerEdge, SchemePathological: hec.LayerIoT,
	}
	for i, st := range fs.Cohorts {
		mix := st.LayerMix()
		if l := wantLayer[cohorts[i].Scheme]; mix[l] != 1 {
			t.Fatalf("cohort %q mix = %v, want all %v", st.Name, mix, l)
		}
	}
	if got := fs.Cohorts[0].Name; got != "IoT Device" {
		t.Fatalf("unnamed IoT cohort label = %q, want the scheme name", got)
	}
	if report := fs.Report(); !strings.Contains(report, "Adaptive") || !strings.Contains(report, "bad-policy") {
		t.Fatalf("fleet report missing cohort line:\n%s", report)
	}
}

// TestCohortValidation pins what a fleet must satisfy before it runs,
// and how an unnamed cohort is labelled.
func TestCohortValidation(t *testing.T) {
	if err := validateCohorts([]Cohort{{Scheme: SchemeEdge}}); err != nil {
		t.Fatalf("valid cohort rejected: %v", err)
	}
	if err := validateCohorts(nil); err == nil {
		t.Fatal("empty fleet must be rejected")
	}
	for _, sch := range []Scheme{-1, SchemePathological + 1} {
		if err := validateCohorts([]Cohort{{Scheme: sch}}); err == nil {
			t.Fatalf("unknown scheme %d must be rejected", int(sch))
		}
	}
	if err := validateCohorts([]Cohort{{Scheme: SchemeEdge, Alpha: -1}}); err == nil {
		t.Fatal("negative alpha must be rejected")
	}
	if err := validateCohorts([]Cohort{{Scheme: SchemeEdge}, {Scheme: SchemeEdge}}); err == nil {
		t.Fatal("duplicate labels must be rejected")
	}
	if err := validateCohorts([]Cohort{{Scheme: SchemeEdge}, {Name: "Edge", Scheme: SchemeCloud}}); err == nil {
		t.Fatal("a name equal to another cohort's scheme label must be rejected")
	}
	if err := validateCohorts([]Cohort{{Scheme: SchemeEdge}, {Name: "edge-2", Scheme: SchemeEdge}}); err != nil {
		t.Fatalf("distinct labels rejected: %v", err)
	}
	if got := (Cohort{Name: "x", Scheme: SchemeEdge}).Label(); got != "x" {
		t.Fatalf("label = %q, want name", got)
	}
	if got := (Cohort{Scheme: SchemeEdge}).Label(); got != SchemeEdge.String() {
		t.Fatalf("label = %q, want the scheme's name %q", got, SchemeEdge.String())
	}
}

// TestRunFleetValidation pins that RunFleet refuses an invalid fleet up
// front.
func TestRunFleetValidation(t *testing.T) {
	dev := testDevice(confident(true), &stubRemote{verdict: confident(true)}, &stubRemote{verdict: confident(true)})
	samples := fleetSamples(4)
	cases := []struct {
		name string
		cfg  FleetConfig
	}{
		{"no cohorts", FleetConfig{}},
		{"unknown cohort scheme", FleetConfig{Cohorts: []Cohort{{Scheme: SchemePathological + 1}}}},
		{"negative alpha", FleetConfig{Cohorts: []Cohort{{Scheme: SchemeEdge, Alpha: -1}}}},
		{"duplicate labels", FleetConfig{Cohorts: []Cohort{{Scheme: SchemeEdge}, {Scheme: SchemeEdge}}}},
	}
	for _, tc := range cases {
		if _, err := RunFleet(context.Background(), dev, samples, tc.cfg); err == nil {
			t.Errorf("%s: RunFleet succeeded, want error", tc.name)
		}
	}
}

// TestFleetDeterministic is the reproducibility contract: the same fleet
// of mixed schemes and batch sizes, run twice, produces identical
// per-cohort routing mixes and confusion counts.
func TestFleetDeterministic(t *testing.T) {
	edge := &stubBatchRemote{stubRemote: stubRemote{verdict: unconfident(), execMs: 5, netMs: 7}}
	cloud := &stubRemote{verdict: confident(true), execMs: 2, netMs: 11}
	dev := testDevice(unconfident(), nil, cloud)
	dev.Remotes[hec.LayerEdge] = edge
	samples := fleetSamples(9) // odd: labels are 5 true / 4 false
	cohorts := []Cohort{
		{Scheme: SchemeEdge, Devices: 2, Rounds: 2, BatchSize: 4},
		{Scheme: SchemeCloud, Devices: 3, Rounds: 1},
		{Scheme: SchemeSuccessive, Devices: 2, Rounds: 1, BatchSize: 3},
		{Scheme: SchemeAdaptive, Devices: 1, Rounds: 3, Alpha: 5e-4},
	}
	run := func() *FleetStats {
		t.Helper()
		fs, err := RunFleet(context.Background(), dev, samples, FleetConfig{Cohorts: cohorts})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	a, b := run(), run()
	for i, c := range cohorts {
		sa, sb := a.Cohorts[i], b.Cohorts[i]
		if want := c.Devices * c.Rounds * len(samples); sa.Windows != want || sb.Windows != want {
			t.Fatalf("cohort %q windows = %d, %d, want %d", sa.Name, sa.Windows, sb.Windows, want)
		}
		if sa.LayerCounts != sb.LayerCounts {
			t.Fatalf("cohort %q routing mix differs across runs: %v vs %v", sa.Name, sa.LayerCounts, sb.LayerCounts)
		}
		if sa.Confusion != sb.Confusion {
			t.Fatalf("cohort %q confusion differs across runs: %+v vs %+v", sa.Name, sa.Confusion, sb.Confusion)
		}
	}
	// Successive escalates past the unconfident IoT verdict and the
	// unconfident edge verdict to the cloud.
	if mix := a.Cohorts[2].LayerMix(); mix[hec.LayerCloud] != 1 {
		t.Fatalf("successive mix = %v, want all cloud", mix)
	}
}

// firstWindows is a batch remote that records the first window of every
// batch it serves.
type firstWindows struct {
	stubBatchRemote
	mu     sync.Mutex
	firsts []float64
}

func (r *firstWindows) DetectBatchContext(ctx context.Context, windows [][][]float64) (transport.BatchResult, error) {
	r.mu.Lock()
	r.firsts = append(r.firsts, windows[0][0][0])
	r.mu.Unlock()
	return r.stubBatchRemote.DetectBatchContext(ctx, windows)
}

// TestFleetDeviceOffsets pins the start-offset rule: device w of a
// cohort's n starts its pass at sample w·len/n.
func TestFleetDeviceOffsets(t *testing.T) {
	edge := &firstWindows{stubBatchRemote: stubBatchRemote{stubRemote: stubRemote{verdict: confident(true)}}}
	dev := testDevice(confident(true), nil, nil)
	dev.Remotes[hec.LayerEdge] = edge
	samples := make([]hec.Sample, 10)
	for i := range samples {
		samples[i] = hec.Sample{Frames: [][]float64{{float64(i)}}}
	}
	_, err := RunFleet(context.Background(), dev, samples, FleetConfig{
		Cohorts: []Cohort{{Scheme: SchemeEdge, Devices: 2, Rounds: 1, BatchSize: len(samples)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(edge.firsts)
	if want := []float64{0, float64(len(samples) / 2)}; !slices.Equal(edge.firsts, want) {
		t.Fatalf("passes started at samples %v, want %v", edge.firsts, want)
	}
}

// TestScenarioKillDuringFleet is the engine's acceptance path: a scripted
// replica kill fires mid-run (gated on completed windows, so it lands
// mid-stream even under -race slowdowns), the fleet finishes with zero
// dropped windows, and the run's Stats.Tiers show the failover: victim
// expelled with failures counted, survivor carrying requests.
func TestScenarioKillDuringFleet(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srvA := startFleetReplica(t)
	srvB := startFleetReplica(t)
	set, err := routing.New(routing.Config{
		Addrs:   []string{srvA.Addr(), srvB.Addr()},
		Policy:  routing.RoundRobin(),
		Retries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := &Device{Local: stubDetector{verdict: confident(true)}}
	dev.Remotes[hec.LayerEdge] = set

	samples := fleetSamples(10)
	const devices, rounds = 4, 5
	fs, err := RunFleet(context.Background(), dev, samples, FleetConfig{
		Cohorts: []Cohort{{Scheme: SchemeEdge, Devices: devices, Rounds: rounds}},
		Scenario: &Scenario{
			Name:   "kill-mid-run",
			Events: []Event{{AfterWindows: 40, Action: Kill(srvA)}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := devices * rounds * len(samples); fs.Total.Windows != want {
		t.Fatalf("windows = %d, want %d — the kill dropped windows", fs.Total.Windows, want)
	}
	if len(fs.Total.Tiers) != 1 {
		t.Fatalf("tiers = %+v, want the edge tier", fs.Total.Tiers)
	}
	tier := fs.Total.Tiers[0]
	if tier.Layer != hec.LayerEdge {
		t.Fatalf("tier layer = %v, want edge", tier.Layer)
	}
	victim, survivor := tier.Replicas[0], tier.Replicas[1]
	if victim.Healthy {
		t.Fatalf("killed replica still healthy: %+v", victim)
	}
	if victim.Expels < 1 || victim.Failures < 1 {
		t.Fatalf("victim shows no failover signature: %+v", victim)
	}
	if survivor.Requests == 0 || !survivor.Healthy {
		t.Fatalf("survivor not carrying traffic: %+v", survivor)
	}
	if victim.Requests == 0 {
		t.Fatalf("victim took no traffic before the kill: %+v", victim)
	}

	set.Close()
	srvB.Close() // Close is idempotent; drain the survivor before the leak check.
	waitForClusterGoroutines(t, baseline)
}

// TestScenarioStragglerPathologicalPolicy is the H14-style validation for
// the scenario engine: with one replica straggling, the deliberately bad
// RouteAlwaysBusiest policy (which piles onto the straggler) must be
// measurably worse on p99 delay than least-in-flight (which routes around
// it) — and the tier report must show the concentration.
func TestScenarioStragglerPathologicalPolicy(t *testing.T) {
	const lag = 40 * time.Millisecond
	samples := fleetSamples(10)

	runWith := func(pol routing.Policy, stragglerFirst bool, devices, rounds int) *FleetStats {
		t.Helper()
		srvS := startFleetReplica(t) // the straggler
		srvH1 := startFleetReplica(t)
		srvH2 := startFleetReplica(t)
		addrs := []string{srvH1.Addr(), srvH2.Addr(), srvS.Addr()}
		if stragglerFirst {
			addrs = []string{srvS.Addr(), srvH1.Addr(), srvH2.Addr()}
		}
		set, err := routing.New(routing.Config{Addrs: addrs, Policy: pol, Retries: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer set.Close()
		dev := &Device{Local: stubDetector{verdict: confident(true)}}
		dev.Remotes[hec.LayerEdge] = set

		fs, err := RunFleet(context.Background(), dev, samples, FleetConfig{
			Cohorts: []Cohort{{Scheme: SchemeEdge, Devices: devices, Rounds: rounds}},
			Scenario: &Scenario{
				Name:   "straggler",
				Events: []Event{{Action: Straggle(srvS, lag)}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}

	// Always-busiest with the straggler first in the address list: the
	// cold-start tie sends traffic there, its in-flight count rises, and
	// the policy self-reinforces onto the slowest replica.
	bad := runWith(routing.AlwaysBusiest(), true, 4, 2)
	// Least-in-flight with the straggler last: ties favour the healthy
	// replicas and the straggler's long in-flight windows repel traffic.
	good := runWith(routing.LeastInFlight(), false, 4, 25)

	badP99 := bad.Total.Delays.Percentile(99)
	goodP99 := good.Total.Delays.Percentile(99)
	lagMs := float64(lag / time.Millisecond)
	if badP99 < lagMs*0.8 {
		t.Fatalf("always-busiest p99 = %.2fms, want ≥ ~%gms (traffic must pile on the straggler)", badP99, lagMs)
	}
	if badP99 <= 2*goodP99 {
		t.Fatalf("always-busiest p99 = %.2fms not measurably worse than least-in-flight p99 = %.2fms", badP99, goodP99)
	}
	// The tier deltas must show the concentration: the straggler carried
	// the overwhelming majority under always-busiest.
	var total, straggler uint64
	for i, r := range bad.Total.Tiers[0].Replicas {
		total += r.Requests
		if i == 0 {
			straggler = r.Requests
		}
	}
	if total == 0 || float64(straggler)/float64(total) < 0.9 {
		t.Fatalf("always-busiest sent only %d/%d requests to the straggler, want ≥ 90%%", straggler, total)
	}
}

// TestScenarioFlappingReplica scripts a replica flapping off and back
// onto the network during a paced fleet run: the run must finish with
// zero errors and zero dropped windows, and the new Stats.Tiers fields
// must show the churn — nonzero expels AND readmits on the victim.
func TestScenarioFlappingReplica(t *testing.T) {
	srvA := startFleetReplica(t)
	srvB := startFleetReplica(t)
	set, err := routing.New(routing.Config{
		Addrs:   []string{srvA.Addr(), srvB.Addr()},
		Policy:  routing.RoundRobin(),
		Retries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	dev := &Device{Local: stubDetector{verdict: confident(true)}}
	dev.Remotes[hec.LayerEdge] = set

	samples := fleetSamples(10)
	const devices, rounds, cycles = 2, 10, 2
	fs, err := RunFleet(context.Background(), dev, samples, FleetConfig{
		Cohorts: []Cohort{{
			Scheme: SchemeEdge, Devices: devices, Rounds: rounds,
			Pattern: workload.Uniform(1),
		}},
		BaseInterval: time.Millisecond,
		Scenario: &Scenario{
			Name:   "flap",
			Events: FlapEvents(srvB, set, 5*time.Millisecond, 15*time.Millisecond, cycles),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := devices * rounds * len(samples); fs.Total.Windows != want {
		t.Fatalf("windows = %d, want %d — flapping dropped windows", fs.Total.Windows, want)
	}
	victim := fs.Total.Tiers[0].Replicas[1]
	if victim.Expels < cycles || victim.Readmits < cycles {
		t.Fatalf("victim churn = %d expels / %d readmits, want ≥ %d of each: %+v",
			victim.Expels, victim.Readmits, cycles, victim)
	}
	if !victim.Healthy {
		t.Fatalf("victim not readmitted after final heal: %+v", victim)
	}
	stable := fs.Total.Tiers[0].Replicas[0]
	if stable.Expels != 0 {
		t.Fatalf("stable replica expelled: %+v", stable)
	}
}

// TestScenarioUnfiredEventIsAnError pins the scripting contract: an event
// the run never reaches is a bug in the scenario, not a silent no-op.
func TestScenarioUnfiredEventIsAnError(t *testing.T) {
	edge := &stubRemote{verdict: confident(true)}
	dev := testDevice(confident(true), edge, &stubRemote{verdict: confident(true)})
	_, err := RunFleet(context.Background(), dev, fleetSamples(2), FleetConfig{
		Cohorts: []Cohort{{Scheme: SchemeIoT}},
		Scenario: &Scenario{
			Name:   "too-late",
			Events: []Event{{At: time.Hour, Action: ActionFunc("noop", func() error { return nil })}},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "never fired") {
		t.Fatalf("err = %v, want a never-fired scenario error", err)
	}
}

// TestOneCohortRunReportsTiers pins the tier deltas of the simplest
// fleet: one cohort on a one-replica cloud tier, where the run's requests
// to that replica are exactly its windows.
func TestOneCohortRunReportsTiers(t *testing.T) {
	srv := startFleetReplica(t)
	set, err := routing.New(routing.Config{Addrs: []string{srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	dev := &Device{Local: stubDetector{verdict: confident(true)}}
	dev.Remotes[hec.LayerCloud] = set

	fs, err := RunFleet(context.Background(), dev, fleetSamples(6), FleetConfig{
		Cohorts: []Cohort{{Scheme: SchemeCloud, Devices: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tiers := fs.Total.Tiers
	if len(tiers) != 1 || tiers[0].Layer != hec.LayerCloud {
		t.Fatalf("run tiers = %+v, want the cloud tier", tiers)
	}
	if got, want := tiers[0].Replicas[0].Requests, uint64(fs.Cohorts[0].Windows); got != want || want != 12 {
		t.Fatalf("tier requests = %d, cohort windows = %d, want 12 of each (deltas over the run)", got, want)
	}
}
