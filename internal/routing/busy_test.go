package routing

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/sched"
	"repro/internal/transport"
)

// gatedDetector blocks any request whose first value is negative until
// release is closed, so tests can pin a scheduled server's only slot and
// keep it pinned while routing decisions are exercised. Other requests
// answer immediately like stubDetector.
type gatedDetector struct{ release chan struct{} }

func (gatedDetector) Name() string { return "gated" }

func (d gatedDetector) Detect(frames [][]float64) (anomaly.Verdict, error) {
	if len(frames) == 0 || len(frames[0]) == 0 {
		return anomaly.Verdict{}, fmt.Errorf("empty window")
	}
	if frames[0][0] < 0 {
		<-d.release
	}
	v := anomaly.Verdict{MinLogPD: -frames[0][0]}
	if frames[0][0] > 1 {
		v.Anomaly = true
		v.Confident = true
	}
	return v, nil
}

func (gatedDetector) NumParams() int           { return 1 }
func (gatedDetector) FlopsPerWindow(int) int64 { return 1 }

// pickFirst always routes to replica 0, making the busy-failover path
// deterministic: the set must try the saturated replica first and only
// reach the free one through the retry loop.
type pickFirst struct{}

func (pickFirst) Name() string            { return "pick-first" }
func (pickFirst) Pick(inflight []int) int { return 0 }

// pollStats waits until cond holds over the scheduled server's stats.
func pollStats(t *testing.T, srv *transport.Server, what string, cond func(sched.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := srv.SchedStats(); ok && cond(st) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := srv.SchedStats()
	t.Fatalf("timed out waiting for %s (stats %+v)", what, st)
}

// TestBusyFailoverExactCounters saturates replica A's server-side scheduler
// (one slot, one queue seat, both taken) and sends one request through a
// set that always tries A first. The request must succeed by failing over
// to B, and A's ledger must show exactly one busy refusal and otherwise be
// untouched: no failure, no expel, still healthy — busy is backpressure,
// not death, so it must not cause membership churn. The health probe must
// also scrape A's real backlog (queue depth 1) into its status.
func TestBusyFailoverExactCounters(t *testing.T) {
	det := gatedDetector{release: make(chan struct{})}
	srvA, err := transport.ServeWith("127.0.0.1:0", det, transport.ServerOptions{
		Sched: &sched.Config{MaxConcurrent: 1, MaxQueue: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB := startReplica(t, stubDetector{})

	// Pin A's only slot, then fill its only queue seat, via direct clients
	// outside the set so none of this shows up in routing counters.
	holder, err := transport.Dial(srvA.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	holderDone := make(chan error, 2)
	go func() {
		_, err := holder.DetectContext(context.Background(), [][]float64{{-1}})
		holderDone <- err
	}()
	pollStats(t, srvA, "holder running", func(st sched.Stats) bool { return st.Running == 1 })
	go func() {
		_, err := holder.DetectContext(context.Background(), [][]float64{{-1}})
		holderDone <- err
	}()
	pollStats(t, srvA, "one queued", func(st sched.Stats) bool { return st.Queued == 1 })

	set, err := New(Config{
		Addrs:    []string{srvA.Addr(), srvB.Addr()},
		PoolSize: 1,
		Policy:   pickFirst{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	res, err := set.DetectContext(context.Background(), [][]float64{{2}})
	if err != nil {
		t.Fatalf("detect against saturated-A must fail over to B, got %v", err)
	}
	if !res.Verdict.Anomaly {
		t.Fatal("failover answer lost the verdict")
	}

	// The health probe's hello doubles as a backlog scrape; run one so A's
	// status carries its live queue depth.
	set.CheckHealth()

	status := set.Status()
	if len(status) != 2 {
		t.Fatalf("status has %d replicas, want 2", len(status))
	}
	a, b := status[0], status[1]
	if a.Addr != srvA.Addr() {
		a, b = b, a
	}
	if a.Busy != 1 {
		t.Fatalf("A busy = %d, want exactly 1", a.Busy)
	}
	if a.Failures != 0 || a.Expels != 0 || !a.Healthy {
		t.Fatalf("busy must not consume health: A failures=%d expels=%d healthy=%v",
			a.Failures, a.Expels, a.Healthy)
	}
	if a.QueueDepth != 1 {
		t.Fatalf("A queue depth = %d, want 1 (probe must scrape the backlog)", a.QueueDepth)
	}
	if b.Requests != 1 || b.Failures != 0 {
		t.Fatalf("B should have served the one rerouted request: requests=%d failures=%d",
			b.Requests, b.Failures)
	}

	// Release the detector and drain the pinned requests cleanly.
	close(det.release)
	for i := 0; i < 2; i++ {
		if err := <-holderDone; err != nil {
			t.Fatalf("pinned request %d: %v", i, err)
		}
	}

	// With capacity back, the same set must reach A directly again.
	if _, err := set.DetectContext(context.Background(), [][]float64{{0.5}}); err != nil {
		t.Fatalf("detect after release: %v", err)
	}
	for _, st := range set.Status() {
		if st.Addr == srvA.Addr() && st.Requests == 0 {
			t.Fatal("A never served a request after its scheduler freed up")
		}
	}
	if errors.Is(err, transport.ErrBusy) {
		t.Fatal("post-release request must not be busy")
	}
}
