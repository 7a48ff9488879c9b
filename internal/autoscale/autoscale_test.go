package autoscale

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/routing"
	"repro/internal/transport"
)

// stubDetector answers instantly; windows with a first value > 1 are
// anomalous.
type stubDetector struct{}

func (stubDetector) Name() string { return "stub" }

func (stubDetector) Detect(frames [][]float64) (anomaly.Verdict, error) {
	if len(frames) == 0 || len(frames[0]) == 0 {
		return anomaly.Verdict{}, fmt.Errorf("empty window")
	}
	v := anomaly.Verdict{MinLogPD: -frames[0][0]}
	if frames[0][0] > 1 {
		v.Anomaly = true
		v.Confident = true
	}
	return v, nil
}

func (stubDetector) NumParams() int           { return 1 }
func (stubDetector) FlopsPerWindow(int) int64 { return 1 }

func newSet(t *testing.T) (*routing.ReplicaSet, *transport.Server) {
	t.Helper()
	srv, err := transport.Serve("127.0.0.1:0", stubDetector{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	set, err := routing.New(routing.Config{Addrs: []string{srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { set.Close() })
	return set, srv
}

// fakePolicy returns a scripted sequence of targets, then holds.
type fakePolicy struct{ targets []int }

func (p *fakePolicy) Decide(m Metrics, now time.Time) int {
	if len(p.targets) == 0 {
		return m.Replicas
	}
	t := p.targets[0]
	p.targets = p.targets[1:]
	return t
}

// TestSetActuatorScalesAndDrains: ScaleTo grows the set through the
// spawner, shrinks it newest-first, refuses to drain below the seed
// membership, and Close returns the tier to its floor.
func TestSetActuatorScalesAndDrains(t *testing.T) {
	set, _ := newSet(t)
	spawner := ServeSpawner(stubDetector{}, transport.ServerOptions{})
	act := NewSetActuator(set, spawner)
	ctx := context.Background()

	if n, err := act.ScaleTo(ctx, 4); err != nil || n != 4 {
		t.Fatalf("ScaleTo(4) = %d, %v", n, err)
	}
	if got := set.Size(); got != 4 {
		t.Fatalf("set size after scale-up = %d, want 4", got)
	}
	// The spawned replicas actually serve.
	for i := 0; i < 8; i++ {
		if _, err := set.DetectContext(context.Background(), [][]float64{{0.5}}); err != nil {
			t.Fatalf("detect on scaled set: %v", err)
		}
	}
	if n, err := act.ScaleTo(ctx, 2); err != nil || n != 2 {
		t.Fatalf("ScaleTo(2) = %d, %v", n, err)
	}
	// The floor is the seed membership: target 0 drains the spawned
	// replica but refuses to touch the seed.
	if n, err := act.ScaleTo(ctx, 0); err == nil || n != 1 {
		t.Fatalf("ScaleTo(0) = %d, %v; want 1 with a refusal", n, err)
	}
	if n, err := act.ScaleTo(ctx, 3); err != nil || n != 3 {
		t.Fatalf("re-grow ScaleTo(3) = %d, %v", n, err)
	}
	if err := act.Close(); err != nil {
		t.Fatalf("actuator close: %v", err)
	}
	if got := set.Size(); got != 1 {
		t.Fatalf("set size after actuator close = %d, want the seed 1", got)
	}
	if _, err := set.DetectContext(context.Background(), [][]float64{{0.5}}); err != nil {
		t.Fatalf("seed replica unusable after close: %v", err)
	}
}

// TestSetActuatorPartialFailure: a spawner that dies mid-scale-up reports
// the count actually reached, and the replicas it did provision serve.
func TestSetActuatorPartialFailure(t *testing.T) {
	set, _ := newSet(t)
	good := ServeSpawner(stubDetector{}, transport.ServerOptions{})
	var calls atomic.Int64
	flaky := SpawnFunc(func(ctx context.Context) (string, func() error, error) {
		if calls.Add(1) > 1 {
			return "", nil, errors.New("spawner out of capacity")
		}
		return good.Spawn(ctx)
	})
	act := NewSetActuator(set, flaky)
	defer act.Close()

	n, err := act.ScaleTo(context.Background(), 4)
	if err == nil {
		t.Fatal("partial scale-up reported no error")
	}
	if n != 2 {
		t.Fatalf("partial scale-up reached %d, want 2", n)
	}
	if got := set.Size(); got != 2 {
		t.Fatalf("set size after partial scale-up = %d, want 2", got)
	}
}

// TestControllerStepActuatesDecision: one Step collects, decides and
// actuates; counters reflect the ops; a hold decision actuates nothing.
func TestControllerStepActuatesDecision(t *testing.T) {
	set, _ := newSet(t)
	act := NewSetActuator(set, ServeSpawner(stubDetector{}, transport.ServerOptions{}))
	ctl, err := New(Config{
		Name:      "test",
		Collector: CollectSet(set),
		Policy:    &fakePolicy{targets: []int{3, 3, 1}},
		Actuator:  act,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	now := time.Now()
	if err := ctl.Step(context.Background(), now); err != nil {
		t.Fatal(err)
	}
	if got := set.Size(); got != 3 {
		t.Fatalf("size after scale-up step = %d, want 3", got)
	}
	// Second decision says 3 with 3 serving: a hold.
	if err := ctl.Step(context.Background(), now); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Step(context.Background(), now); err != nil {
		t.Fatal(err)
	}
	if got := set.Size(); got != 1 {
		t.Fatalf("size after drain step = %d, want 1", got)
	}
	st := ctl.Status()
	if st.ScaleUps != 1 || st.ScaleDowns != 1 {
		t.Fatalf("scale ops = %d up / %d down, want 1/1", st.ScaleUps, st.ScaleDowns)
	}
	if st.HighWater != 3 {
		t.Fatalf("high water = %d, want 3", st.HighWater)
	}
	if st.Name != "test" {
		t.Fatalf("status name = %q", st.Name)
	}
}

// TestControllerLoopLeakFree: the ticker loop starts, scales under a
// scripted policy, stops, and Close leaves no goroutines or spawned
// replicas behind.
func TestControllerLoopLeakFree(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, err := transport.Serve("127.0.0.1:0", stubDetector{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := routing.New(routing.Config{Addrs: []string{srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	act := NewSetActuator(set, ServeSpawner(stubDetector{}, transport.ServerOptions{}))
	ctl, err := New(Config{
		Collector: CollectSet(set),
		Policy:    &fakePolicy{targets: []int{2}},
		Actuator:  act,
		Interval:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	ctl.Start() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for set.Size() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("loop never actuated: size %d", set.Size())
		}
		time.Sleep(time.Millisecond)
	}
	ctl.Stop()
	ctl.Stop() // idempotent
	if err := ctl.Close(); err != nil {
		t.Fatalf("controller close: %v", err)
	}
	if got := set.Size(); got != 1 {
		t.Fatalf("size after controller close = %d, want the seed 1", got)
	}
	set.Close()
	srv.Close()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNewValidates: a controller without all three stages is refused.
func TestNewValidates(t *testing.T) {
	set, _ := newSet(t)
	none := SpawnFunc(func(context.Context) (string, func() error, error) {
		return "", nil, errors.New("no standby")
	})
	cases := []Config{
		{},
		{Collector: CollectSet(set), Policy: &TargetUtilization{TargetInFlight: 1}},
		{Collector: CollectSet(set), Actuator: NewSetActuator(set, none)},
		{Policy: &TargetUtilization{TargetInFlight: 1}, Actuator: NewSetActuator(set, none)},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: incomplete config accepted", i)
		}
	}
}

// TestCollectSet: the built-in collector aggregates membership, health
// and load signals from the set's status.
func TestCollectSet(t *testing.T) {
	set, _ := newSet(t)
	for i := 0; i < 4; i++ {
		if _, err := set.DetectContext(context.Background(), [][]float64{{0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	m := CollectSet(set).Collect()
	if m.Replicas != 1 || m.Healthy != 1 {
		t.Fatalf("collected %+v, want 1 replica, 1 healthy", m)
	}
	if m.InFlight != 0 {
		t.Fatalf("idle set collected %d in flight", m.InFlight)
	}
	if m.P99Ms <= 0 {
		t.Fatalf("no service signal collected: %+v", m)
	}
}
