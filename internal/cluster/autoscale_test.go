package cluster

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/hec"
	"repro/internal/routing"
	"repro/internal/transport"
	"repro/internal/workload"
)

// slowFleetReplica serves the stub detector with a per-request fault
// delay, so in-flight load actually accumulates under concurrent devices
// — the signal the autoscaler's collector scrapes.
func slowFleetReplica(t *testing.T, delay time.Duration) *transport.Server {
	t.Helper()
	srv := startFleetReplica(t)
	srv.SetFaultDelay(delay)
	return srv
}

// slowSpawner provisions more slow stub replicas in-process, tracking
// them for cleanup.
type slowSpawner struct {
	delay time.Duration

	mu   sync.Mutex
	srvs []*transport.Server
}

func (sp *slowSpawner) Spawn(ctx context.Context) (string, func() error, error) {
	srv, err := transport.Serve("127.0.0.1:0", stubDetector{verdict: confident(true)}, nil)
	if err != nil {
		return "", nil, err
	}
	srv.SetFaultDelay(sp.delay)
	sp.mu.Lock()
	sp.srvs = append(sp.srvs, srv)
	sp.mu.Unlock()
	return srv.Addr(), srv.Close, nil
}

func (sp *slowSpawner) closeAll() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for _, srv := range sp.srvs {
		srv.Close()
	}
	sp.srvs = nil
}

// TestAutoscaleSpikeScaleUpDrainDown is the elastic fleet's end-to-end
// acceptance path: a flash-crowd cohort floods a one-replica cloud tier
// through RunFleet, the control loop rides the spike up to the four-
// replica ceiling, the run completes with zero dropped windows and the
// tier report showing the grown membership carrying traffic, and once the
// spike passes the cooldown-gated drain walks the tier back to one
// replica — leak-free and race-clean.
func TestAutoscaleSpikeScaleUpDrainDown(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const serviceDelay = 10 * time.Millisecond
	seedSrv := slowFleetReplica(t, serviceDelay)
	set, err := routing.New(routing.Config{
		Addrs:        []string{seedSrv.Addr()},
		Policy:       routing.LeastInFlight(),
		Retries:      2,
		DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	spawner := &slowSpawner{delay: serviceDelay}
	defer spawner.closeAll()
	ctl, err := autoscale.New(autoscale.Config{
		Name:      "cloud",
		Collector: autoscale.CollectSet(set),
		Policy: &autoscale.TargetUtilization{
			TargetInFlight: 2,
			Min:            1,
			Max:            4,
			UpCooldown:     20 * time.Millisecond,
			// Longer than the whole run: the tier must still be at its
			// high-water mark when the spike ends, so the drain below is
			// provably cooldown-gated, not an in-run dip.
			DownCooldown: 30 * time.Second,
		},
		Actuator: autoscale.NewSetActuator(set, spawner),
		Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := &Device{Local: stubDetector{verdict: confident(true)}}
	dev.Remotes[hec.LayerCloud] = set

	// Eight saturating devices against a 10 ms service time hold ~8
	// requests in flight — demand for four replicas at two-per-replica.
	samples := fleetSamples(10)
	const devices, rounds = 8, 3
	fs, err := RunFleet(context.Background(), dev, samples, FleetConfig{
		Cohorts: []Cohort{{
			Name: "spike", Scheme: SchemeCloud, Devices: devices, Rounds: rounds,
			Pattern: workload.Spike(0, time.Minute, 1, 50),
		}},
		BaseInterval: time.Millisecond,
		Autoscalers:  []*autoscale.Controller{ctl},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := devices * rounds * len(samples); fs.Total.Windows != want {
		t.Fatalf("windows = %d, want %d — the elastic tier dropped windows", fs.Total.Windows, want)
	}
	if len(fs.Scale) != 1 {
		t.Fatalf("fleet stats carry %d scale statuses, want 1", len(fs.Scale))
	}
	sc := fs.Scale[0]
	if sc.HighWater != 4 {
		t.Fatalf("spike high water = %d replicas, want the 4-replica ceiling (status %+v)", sc.HighWater, sc)
	}
	if sc.ScaleUps == 0 {
		t.Fatalf("no scale-ups recorded riding a spike: %+v", sc)
	}
	// The tier report shows the grown membership, every member carrying
	// traffic (scale-up is capacity, not decoration).
	if len(fs.Total.Tiers) != 1 || fs.Total.Tiers[0].Layer != hec.LayerCloud {
		t.Fatalf("tier report = %+v, want the cloud tier", fs.Total.Tiers)
	}
	tier := fs.Total.Tiers[0]
	if len(tier.Replicas) != 4 {
		t.Fatalf("tier report shows %d replicas at run end, want 4", len(tier.Replicas))
	}
	for _, r := range tier.Replicas {
		if r.Requests == 0 {
			t.Fatalf("scaled-up replica %s served nothing: %+v", r.Addr, r)
		}
	}

	// The spike is over (RunFleet stopped the loop with the tier still
	// scaled); stepping the controller over the now-idle tier walks it
	// back to one replica, one cooldown-gated drain at a time. Step takes
	// the decision time explicitly, so the cooldowns are exercised with
	// synthetic clock jumps instead of wall-clock sleeps.
	now := time.Now()
	for steps := 0; set.Size() > 1; steps++ {
		if steps > 100 {
			t.Fatalf("drain-down stuck at %d replicas", set.Size())
		}
		now = now.Add(time.Minute)
		if err := ctl.Step(context.Background(), now); err != nil {
			t.Fatalf("drain step: %v", err)
		}
	}
	st := ctl.Status()
	if st.ScaleDowns < 3 {
		t.Fatalf("drain to 1 took %d scale-downs, want ≥ 3", st.ScaleDowns)
	}
	// The drained tier still serves on the seed replica.
	if _, err := set.DetectContext(context.Background(), window); err != nil {
		t.Fatalf("tier unusable after drain-down: %v", err)
	}

	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
	set.Close()
	seedSrv.Close()
	spawner.closeAll()
	waitForClusterGoroutines(t, baseline)
}

// TestAutoscaleNoOpDeterminism pins the control plane's observation-only
// invariant: over a steady uniform fleet that never leaves the policy's
// hysteresis band, the autoscaler makes zero scale decisions and the
// run's stats — window counts, routing mix, confusion — are bit-identical
// to the same fleet run without any autoscaler attached.
func TestAutoscaleNoOpDeterminism(t *testing.T) {
	srvA := startFleetReplica(t)
	srvB := startFleetReplica(t)
	samples := fleetSamples(9) // odd: labels are 5 true / 4 false

	run := func(withAutoscaler bool) (*FleetStats, autoscale.Status) {
		t.Helper()
		set, err := routing.New(routing.Config{
			Addrs:  []string{srvA.Addr(), srvB.Addr()},
			Policy: routing.RoundRobin(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer set.Close()
		dev := &Device{Local: stubDetector{verdict: confident(true)}}
		dev.Remotes[hec.LayerCloud] = set
		cfg := FleetConfig{
			Cohorts: []Cohort{
				{Name: "steady", Scheme: SchemeCloud, Devices: 3, Rounds: 2, Pattern: workload.Uniform(1)},
				{Name: "local", Scheme: SchemeIoT, Devices: 2, Rounds: 2, Pattern: workload.Uniform(1)},
			},
			BaseInterval: time.Millisecond,
		}
		var ctl *autoscale.Controller
		if withAutoscaler {
			ctl, err = autoscale.New(autoscale.Config{
				Name:      "cloud",
				Collector: autoscale.CollectSet(set),
				// The band is far above what three paced devices can hold in
				// flight, so every round decides "hold".
				Policy:   &autoscale.TargetUtilization{TargetInFlight: 64, Min: 2, Max: 8},
				Actuator: autoscale.NewSetActuator(set, &slowSpawner{}),
				Interval: 2 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ctl.Close()
			cfg.Autoscalers = []*autoscale.Controller{ctl}
		}
		fs, err := RunFleet(context.Background(), dev, samples, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var st autoscale.Status
		if ctl != nil {
			st = ctl.Status()
		}
		return fs, st
	}

	plain, _ := run(false)
	scaled, st := run(true)

	if st.ScaleUps != 0 || st.ScaleDowns != 0 {
		t.Fatalf("steady load produced scale decisions: %+v", st)
	}
	if st.Replicas != 2 || st.HighWater != 2 {
		t.Fatalf("steady membership moved: %+v", st)
	}
	if plain.Total.Windows != scaled.Total.Windows {
		t.Fatalf("window counts diverge: %d without vs %d with autoscaler",
			plain.Total.Windows, scaled.Total.Windows)
	}
	if plain.Total.LayerCounts != scaled.Total.LayerCounts {
		t.Fatalf("routing mix diverges: %v without vs %v with autoscaler",
			plain.Total.LayerCounts, scaled.Total.LayerCounts)
	}
	if plain.Total.Confusion != scaled.Total.Confusion {
		t.Fatalf("confusion diverges: %+v without vs %+v with autoscaler",
			plain.Total.Confusion, scaled.Total.Confusion)
	}
	if len(plain.Cohorts) != len(scaled.Cohorts) {
		t.Fatalf("cohort counts diverge: %d vs %d", len(plain.Cohorts), len(scaled.Cohorts))
	}
	for i := range plain.Cohorts {
		if plain.Cohorts[i].Confusion != scaled.Cohorts[i].Confusion {
			t.Fatalf("cohort %q confusion diverges with an idle autoscaler attached",
				plain.Cohorts[i].Name)
		}
		if plain.Cohorts[i].LayerCounts != scaled.Cohorts[i].LayerCounts {
			t.Fatalf("cohort %q routing mix diverges with an idle autoscaler attached",
				plain.Cohorts[i].Name)
		}
	}
}
