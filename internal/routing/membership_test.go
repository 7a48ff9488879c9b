package routing

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// window returns a minimal benign window for the stub detector.
func window() [][]float64 { return [][]float64{{0.5}} }

// statusOf returns the status entry for addr, or nil when it left the
// rotation.
func statusOf(set *ReplicaSet, addr string) *ReplicaStatus {
	for _, st := range set.Status() {
		if st.Addr == addr {
			return &st
		}
	}
	return nil
}

// churn sums the membership-churn counters across the rotation.
func churn(set *ReplicaSet) (expels, readmits uint64) {
	for _, st := range set.Status() {
		expels += st.Expels
		readmits += st.Readmits
	}
	return
}

// TestAddReceivesTraffic: a replica Added to a live set starts receiving
// requests immediately — the synchronous dial means the very next
// round-robin pass reaches it — and joining counts no readmission.
// Removing it again leaves the survivor in the rotation with its counters
// untouched.
func TestAddReceivesTraffic(t *testing.T) {
	srvA := startReplica(t, stubDetector{})
	srvB := startReplica(t, stubDetector{})
	set, err := New(Config{Addrs: []string{srvA.Addr()}, Policy: RoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	if _, err := set.DetectContext(context.Background(), window()); err != nil {
		t.Fatal(err)
	}
	if err := set.Add(srvB.Addr()); err != nil {
		t.Fatalf("adding a live replica: %v", err)
	}
	if got := set.Size(); got != 2 {
		t.Fatalf("size after add = %d, want 2", got)
	}
	for i := 0; i < 4; i++ {
		if _, err := set.DetectContext(context.Background(), window()); err != nil {
			t.Fatalf("detect %d after add: %v", i, err)
		}
	}
	st := statusOf(set, srvB.Addr())
	if st == nil {
		t.Fatalf("added replica %s missing from status", srvB.Addr())
	}
	if st.Requests == 0 {
		t.Fatalf("added replica received no traffic; status %+v", st)
	}
	if st.Readmits != 0 || st.Expels != 0 {
		t.Fatalf("membership join counted as churn: expels=%d readmits=%d", st.Expels, st.Readmits)
	}

	before := statusOf(set, srvA.Addr())
	if err := set.Remove(srvB.Addr()); err != nil {
		t.Fatalf("removing the added replica: %v", err)
	}
	if got := set.Addrs(); len(got) != 1 || got[0] != srvA.Addr() {
		t.Fatalf("membership after remove = %v, want [%s]", got, srvA.Addr())
	}
	if after := statusOf(set, srvA.Addr()); after == nil || *after != *before {
		t.Fatalf("survivor's counters changed across a remove: before %+v after %+v", before, after)
	}
}

// TestAddRejectsDuplicatesAndDead: an address already in the rotation and
// an undialable address are both refused, leaving membership unchanged.
func TestAddRejectsDuplicatesAndDead(t *testing.T) {
	srv := startReplica(t, stubDetector{})
	other := startReplica(t, stubDetector{})
	set, err := New(Config{Addrs: []string{srv.Addr(), other.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	if err := set.Add(srv.Addr()); err == nil {
		t.Fatal("duplicate add succeeded")
	}
	dead := startReplica(t, stubDetector{})
	deadAddr := dead.Addr()
	dead.Close()
	if err := set.Add(deadAddr); err == nil {
		t.Fatal("adding a dead address succeeded")
	}
	if got := set.Size(); got != 2 {
		t.Fatalf("size after refused adds = %d, want 2", got)
	}
}

// TestRemoveDrainsInFlight: Remove under live traffic stops routing new
// work to the victim but lets its in-flight requests finish — every
// streamed window succeeds, Remove reports a clean (not forced) drain,
// and no churn is counted.
func TestRemoveDrainsInFlight(t *testing.T) {
	srvA := startReplica(t, stubDetector{SleepMs: 60})
	srvB := startReplica(t, stubDetector{SleepMs: 60})
	set, err := New(Config{Addrs: []string{srvA.Addr(), srvB.Addr()}, Policy: RoundRobin(), PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	const workers, perWorker = 8, 4
	var (
		wg   sync.WaitGroup
		fail atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := set.DetectContext(context.Background(), window()); err != nil {
					t.Errorf("detect during drain: %v", err)
					fail.Add(1)
					return
				}
			}
		}()
	}

	// Remove the victim only once it provably has work in flight, so the
	// drain path is the one under test.
	victim := srvA.Addr()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := statusOf(set, victim)
		if st != nil && st.InFlight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never saw in-flight work")
		}
		time.Sleep(time.Millisecond)
	}
	if err := set.Remove(victim); err != nil {
		t.Fatalf("drain-remove was not clean: %v", err)
	}
	if st := statusOf(set, victim); st != nil {
		t.Fatalf("removed replica still in rotation: %+v", st)
	}
	wg.Wait()
	if fail.Load() > 0 {
		t.Fatalf("%d windows dropped during membership change", fail.Load())
	}
	if got := set.Size(); got != 1 {
		t.Fatalf("size after remove = %d, want 1", got)
	}
	if e, r := churn(set); e != 0 || r != 0 {
		t.Fatalf("membership remove counted as churn: expels=%d readmits=%d", e, r)
	}
}

// TestRemoveLastReplicaRefused: a tier cannot scale to zero out from
// under its sessions.
func TestRemoveLastReplicaRefused(t *testing.T) {
	srv := startReplica(t, stubDetector{})
	set, err := New(Config{Addrs: []string{srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if err := set.Remove(srv.Addr()); err == nil {
		t.Fatal("removing the last replica succeeded")
	}
	if _, err := set.DetectContext(context.Background(), window()); err != nil {
		t.Fatalf("set unusable after refused remove: %v", err)
	}
}

// TestMembershipChurnCountersExact: continuous Add/Remove cycles under
// live -race traffic leave Expels and Readmits at exactly the values
// health events produced — zero here, since every replica stays healthy
// throughout. Failover-driven churn accounting is pinned separately by
// TestExpelReadmitCounters; this test pins that membership ops never leak
// into it.
func TestMembershipChurnCountersExact(t *testing.T) {
	srvA := startReplica(t, stubDetector{SleepMs: 2})
	srvB := startReplica(t, stubDetector{SleepMs: 2})
	srvC := startReplica(t, stubDetector{SleepMs: 2})
	set, err := New(Config{Addrs: []string{srvA.Addr(), srvB.Addr()}, Policy: LeastInFlight(), DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := set.DetectBatchContext(context.Background(), [][][]float64{window(), window()}); err != nil {
					t.Errorf("batch during churn: %v", err)
					return
				}
			}
		}()
	}
	// Cycle the third replica in and out while traffic flows.
	for i := 0; i < 5; i++ {
		if err := set.Add(srvC.Addr()); err != nil {
			t.Fatalf("cycle %d add: %v", i, err)
		}
		time.Sleep(5 * time.Millisecond)
		if err := set.Remove(srvC.Addr()); err != nil {
			t.Fatalf("cycle %d remove: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if e, r := churn(set); e != 0 || r != 0 {
		t.Fatalf("membership cycling perturbed churn counters: expels=%d readmits=%d, want 0/0", e, r)
	}
	if got := set.Size(); got != 2 {
		t.Fatalf("size after cycles = %d, want 2", got)
	}
}

// TestServicePercentilesPopulate: successful requests feed the rolling
// service-time window, and the percentiles order sensibly — the load
// signal the autoscaler's collector scrapes.
func TestServicePercentilesPopulate(t *testing.T) {
	srv := startReplica(t, stubDetector{SleepMs: 5})
	set, err := New(Config{Addrs: []string{srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for i := 0; i < 10; i++ {
		if _, err := set.DetectContext(context.Background(), window()); err != nil {
			t.Fatal(err)
		}
	}
	st := set.Status()[0]
	if st.ServiceP50Ms <= 0 || st.ServiceP99Ms <= 0 {
		t.Fatalf("service percentiles not populated: %+v", st)
	}
	if st.ServiceP99Ms < st.ServiceP50Ms {
		t.Fatalf("p99 %.3f < p50 %.3f", st.ServiceP99Ms, st.ServiceP50Ms)
	}
	if st.ServiceP50Ms < 5 {
		t.Fatalf("p50 %.3f below the 5 ms the server provably sleeps", st.ServiceP50Ms)
	}
}

// TestMembershipLeakFree: a set that grows, shrinks and serves traffic
// leaves no goroutines behind after Close.
func TestMembershipLeakFree(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srvA := startReplica(t, stubDetector{})
	srvB := startReplica(t, stubDetector{})
	set, err := New(Config{Addrs: []string{srvA.Addr()}, HealthInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Add(srvB.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := set.DetectContext(context.Background(), window()); err != nil {
		t.Fatal(err)
	}
	if err := set.Remove(srvB.Addr()); err != nil {
		t.Fatal(err)
	}
	set.Close()
	srvA.Close()
	srvB.Close()
	waitForGoroutines(t, baseline)
}
