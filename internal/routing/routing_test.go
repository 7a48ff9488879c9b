package routing

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/transport"
)

// stubDetector flags windows whose first value exceeds 1, sleeping SleepMs
// per request so tests can hold requests in flight.
type stubDetector struct{ SleepMs float64 }

func (stubDetector) Name() string { return "stub" }

func (d stubDetector) Detect(frames [][]float64) (anomaly.Verdict, error) {
	if d.SleepMs > 0 {
		time.Sleep(time.Duration(d.SleepMs * float64(time.Millisecond)))
	}
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

func startReplica(t *testing.T, det anomaly.Detector) *transport.Server {
	t.Helper()
	srv, err := transport.Serve("127.0.0.1:0", det, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestPolicies(t *testing.T) {
	loads := []int{3, 1, 2}
	if got := LeastInFlight().Pick(loads); got != 1 {
		t.Fatalf("least-in-flight picked %d, want 1", got)
	}
	if got := AlwaysBusiest().Pick(loads); got != 0 {
		t.Fatalf("always-busiest picked %d, want 0", got)
	}
	rr := RoundRobin()
	seen := make([]int, 3)
	for i := 0; i < 9; i++ {
		seen[rr.Pick(loads)]++
	}
	for i, n := range seen {
		if n != 3 {
			t.Fatalf("round-robin visited replica %d %d times in 9 picks, want 3", i, n)
		}
	}
	// Power-of-two always picks the less loaded of its two samples, so with
	// one hugely loaded replica it must avoid it most of the time.
	p2c := PowerOfTwo(7)
	skewed := []int{1000, 0, 0}
	hot := 0
	for i := 0; i < 300; i++ {
		if p2c.Pick(skewed) == 0 {
			hot++
		}
	}
	if hot > 0 {
		// Index 0 can only win a comparison it is part of if the other
		// sample is even busier — impossible here.
		t.Fatalf("power-of-two picked the overloaded replica %d/300 times", hot)
	}
	for _, name := range []string{"round-robin", "least-in-flight", "power-of-two", "always-busiest"} {
		if _, err := ParsePolicy(name); err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("ParsePolicy must reject unknown names")
	}
	// Stateful policies clone per set: advancing the original must not
	// advance the clone (one WithRouting value across two tiers would
	// otherwise pin each tier to a parity class of replicas).
	orig := RoundRobin()
	_ = orig.Pick(loads)
	clone := orig.(Cloner).ClonePolicy()
	if got := clone.Pick(loads); got != 0 {
		t.Fatalf("cloned round-robin starts at %d, want 0 (independent state)", got)
	}
	if _, ok := PowerOfTwo(3).(Cloner); !ok {
		t.Fatal("power-of-two must clone per set (shared RNG otherwise)")
	}
}

// TestFailoverMidStream kills one of two replicas while a stream of
// requests is running: every request must succeed (the set retries broken
// attempts onto the survivor), the dead replica must be marked unhealthy,
// and no goroutines may leak.
func TestFailoverMidStream(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srvA := startReplica(t, stubDetector{})
	srvB := startReplica(t, stubDetector{})
	set, err := New(Config{
		Addrs:    []string{srvA.Addr(), srvB.Addr()},
		PoolSize: 2,
		Policy:   RoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	win := [][]float64{{2}}
	for i := 0; i < 5; i++ {
		if _, err := set.DetectContext(ctx, win); err != nil {
			t.Fatalf("pre-kill request %d: %v", i, err)
		}
	}
	srvA.Close() // replica A dies with the set mid-stream
	for i := 0; i < 20; i++ {
		res, err := set.DetectContext(ctx, win)
		if err != nil {
			t.Fatalf("post-kill request %d did not fail over: %v", i, err)
		}
		if !res.Verdict.Anomaly {
			t.Fatalf("post-kill request %d verdict = %+v, want anomaly", i, res.Verdict)
		}
	}
	st := set.Status()
	if st[0].Healthy {
		t.Fatalf("dead replica still marked healthy: %+v", st[0])
	}
	if !st[1].Healthy || st[1].Requests == 0 {
		t.Fatalf("survivor not carrying traffic: %+v", st[1])
	}

	set.Close()
	srvB.Close()
	waitForGoroutines(t, baseline)
}

// TestRetryBudgetExhaustion kills every replica and checks the terminal
// error satisfies the taxonomy: ErrExhausted, transport.ErrRemote and
// transport.ErrConn all match, so callers upstack classify it as a remote
// failure.
func TestRetryBudgetExhaustion(t *testing.T) {
	srvA := startReplica(t, stubDetector{})
	srvB := startReplica(t, stubDetector{})
	set, err := New(Config{Addrs: []string{srvA.Addr(), srvB.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	srvA.Close()
	srvB.Close()
	_, err = set.DetectContext(context.Background(), [][]float64{{2}})
	if err == nil {
		t.Fatal("detection with every replica dead must fail")
	}
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if !errors.Is(err, transport.ErrRemote) {
		t.Fatalf("err = %v, want transport.ErrRemote", err)
	}
	if !errors.Is(err, transport.ErrConn) {
		t.Fatalf("err = %v, want transport.ErrConn", err)
	}
}

// TestHealthCheckRevivesReplica expels a replica by killing it, then
// brings a replacement up on the same address and checks a health probe
// readmits it.
func TestHealthCheckRevivesReplica(t *testing.T) {
	srvA := startReplica(t, stubDetector{})
	srvB := startReplica(t, stubDetector{})
	addrA := srvA.Addr()
	set, err := New(Config{Addrs: []string{addrA, srvB.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	srvA.Close()
	// Drive requests until the set notices A is gone.
	for i := 0; i < 10; i++ {
		if _, err := set.DetectContext(context.Background(), [][]float64{{2}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := set.Status(); st[0].Healthy {
		t.Fatalf("dead replica still healthy: %+v", st[0])
	}

	revived, err := transport.Serve(addrA, stubDetector{}, nil)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addrA, err)
	}
	defer revived.Close()
	set.CheckHealth()
	if st := set.Status(); !st[0].Healthy {
		t.Fatalf("revived replica still unhealthy after probe: %+v", st[0])
	}
}

// TestAdmissionCapSheds saturates a MaxInFlight-1 set with a slow detector
// and checks the overflow request fails fast with ErrShed instead of
// queueing.
func TestAdmissionCapSheds(t *testing.T) {
	srv := startReplica(t, stubDetector{SleepMs: 300})
	set, err := New(Config{Addrs: []string{srv.Addr()}, MaxInFlight: 1, NoRetries: true})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		_, _ = set.DetectContext(context.Background(), [][]float64{{0.5}})
	}()
	<-started
	time.Sleep(50 * time.Millisecond) // let the slow request get in flight
	start := time.Now()
	_, err = set.DetectContext(context.Background(), [][]float64{{0.5}})
	elapsed := time.Since(start)
	wg.Wait()
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if !errors.Is(err, transport.ErrRemote) {
		t.Fatalf("shed error must wrap transport.ErrRemote, got %v", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("shed took %v — it queued instead of failing fast", elapsed)
	}
	if set.Shed() != 1 {
		t.Fatalf("Shed() = %d, want 1", set.Shed())
	}
}

// TestApplicationErrorNotRetried pins the failover contract: a replica
// that *answers* with an error is alive — the deterministic refusal passes
// through instead of being re-run on every other replica, and the replica
// stays in the healthy set.
func TestApplicationErrorNotRetried(t *testing.T) {
	srvA := startReplica(t, stubDetector{})
	srvB := startReplica(t, stubDetector{})
	set, err := New(Config{Addrs: []string{srvA.Addr(), srvB.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	// An empty window makes the detector itself refuse — an application
	// error carried in the response, not a connection failure.
	_, err = set.DetectContext(context.Background(), [][]float64{})
	if err == nil {
		t.Fatal("empty window must fail")
	}
	if !errors.Is(err, transport.ErrRemote) {
		t.Fatalf("err = %v, want transport.ErrRemote", err)
	}
	if errors.Is(err, transport.ErrConn) || errors.Is(err, ErrExhausted) {
		t.Fatalf("application error was treated as a connection failure: %v", err)
	}
	st := set.Status()
	if got := st[0].Requests + st[1].Requests; got != 1 {
		t.Fatalf("application error was attempted %d times, want 1", got)
	}
	if !st[0].Healthy || !st[1].Healthy {
		t.Fatalf("an answering replica was expelled: %+v", st)
	}
}

// TestDeadlineNotRetried pins that a server-shed (deadline-expired) request
// does not burn the retry budget on other replicas: the deadline tripped,
// the tier is healthy, and the error must classify as DeadlineExceeded.
func TestDeadlineNotRetried(t *testing.T) {
	srvA := startReplica(t, stubDetector{})
	srvB := startReplica(t, stubDetector{})
	set, err := New(Config{Addrs: []string{srvA.Addr(), srvB.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = set.DetectContext(ctx, [][]float64{{2}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrExhausted) {
		t.Fatalf("deadline error burned the retry budget: %v", err)
	}
	st := set.Status()
	if got := st[0].Requests + st[1].Requests; got > 1 {
		t.Fatalf("an expired request was attempted %d times, want ≤ 1", got)
	}
}

// TestBatchFailover runs DetectBatch through a set whose first replica is
// already gone (startup tolerance) and checks the batch lands intact.
func TestBatchFailover(t *testing.T) {
	srvA := startReplica(t, stubDetector{})
	srvB := startReplica(t, stubDetector{})
	set, err := New(Config{Addrs: []string{srvA.Addr(), srvB.Addr()}, Policy: LeastInFlight()})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	srvA.Close()

	windows := [][][]float64{{{2}}, {{0.5}}, {{3}}}
	res, err := set.DetectBatchContext(context.Background(), windows)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Verdicts) != 3 {
		t.Fatalf("got %d verdicts, want 3", len(res.Verdicts))
	}
	if !res.Verdicts[0].Anomaly || res.Verdicts[1].Anomaly || !res.Verdicts[2].Anomaly {
		t.Fatalf("batch verdicts wrong after failover: %+v", res.Verdicts)
	}
}

// TestNewRequiresOneReachable pins startup semantics: all-dead fails, one
// live replica among dead ones succeeds with the dead ones unhealthy.
func TestNewRequiresOneReachable(t *testing.T) {
	if _, err := New(Config{Addrs: []string{"127.0.0.1:1"}}); err == nil {
		t.Fatal("New with no reachable replica must fail")
	}
	srv := startReplica(t, stubDetector{})
	set, err := New(Config{Addrs: []string{"127.0.0.1:1", srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	st := set.Status()
	if st[0].Healthy || !st[1].Healthy {
		t.Fatalf("startup health wrong: %+v", st)
	}
	if _, err := set.DetectContext(context.Background(), [][]float64{{2}}); err != nil {
		t.Fatalf("detection through the live replica: %v", err)
	}
}

// TestHealthLoopLeakFree runs a set with a fast background checker and
// asserts Close tears it down without leaking goroutines.
func TestHealthLoopLeakFree(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv := startReplica(t, stubDetector{})
	set, err := New(Config{Addrs: []string{srv.Addr()}, HealthInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let a few probes run
	if _, err := set.DetectContext(context.Background(), [][]float64{{2}}); err != nil {
		t.Fatal(err)
	}
	set.Close()
	srv.Close()
	waitForGoroutines(t, baseline)
}

func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}
