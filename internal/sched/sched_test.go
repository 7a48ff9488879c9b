package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func waitQueued(t *testing.T, s *Scheduler, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().Queued == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached %d entries (stats %+v)", want, s.Stats())
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"fifo", "edf", "slo", "reverse-edf"} {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("ParsePolicy(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ParsePolicy("lifo"); err == nil {
		t.Fatal("ParsePolicy(lifo) should fail")
	}
	if p, err := ParsePolicy("EDF"); err != nil || p.Name() != "edf" {
		t.Fatalf("ParsePolicy is not case-insensitive: %v %v", p, err)
	}
}

func TestPolicyOrdering(t *testing.T) {
	base := time.Unix(1000, 0)
	mk := func(dlOffsetMs int, class int, seq uint64) Item {
		it := Item{Class: class, Seq: seq}
		if dlOffsetMs >= 0 {
			it.Deadline = base.Add(time.Duration(dlOffsetMs) * time.Millisecond)
		}
		return it
	}
	// Four items: seq order 1..4, deadlines 30ms, 10ms, none, 20ms;
	// classes bulk, interactive, interactive, bulk.
	items := []Item{
		mk(30, ClassBulk, 1),
		mk(10, ClassInteractive, 2),
		mk(-1, ClassInteractive, 3),
		mk(20, ClassBulk, 4),
	}
	cases := []struct {
		policy Policy
		want   []uint64 // expected service order by Seq
	}{
		{FIFO{}, []uint64{1, 2, 3, 4}},
		{EDF{}, []uint64{2, 4, 1, 3}},        // earliest deadline first, deadline-less last
		{ReverseEDF{}, []uint64{3, 1, 4, 2}}, // deadline-less first, latest deadline first
		{SLOClass{}, []uint64{2, 3, 4, 1}},   // interactive before bulk, EDF within class
	}
	for _, tc := range cases {
		t.Run(tc.policy.Name(), func(t *testing.T) {
			// Selection-sort by Less to derive the policy's service order.
			rest := append([]Item(nil), items...)
			var got []uint64
			for len(rest) > 0 {
				best := 0
				for i := 1; i < len(rest); i++ {
					if tc.policy.Less(rest[i], rest[best]) {
						best = i
					}
				}
				got = append(got, rest[best].Seq)
				rest = append(rest[:best], rest[best+1:]...)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("service order %v, want %v", got, tc.want)
			}
		})
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{MaxConcurrent: 0}); err == nil {
		t.Fatal("MaxConcurrent 0 should be rejected")
	}
	if _, err := New(Config{MaxConcurrent: 1, MaxQueue: -1}); err == nil {
		t.Fatal("negative MaxQueue should be rejected")
	}
	s, err := New(Config{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Policy().Name() != "fifo" {
		t.Fatalf("default policy %q, want fifo", s.Policy().Name())
	}
}

func TestBusyWhenQueueFull(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 1, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Acquire(Key{Conn: 1, Req: 1}, time.Time{}, ClassInteractive)
	if err != nil {
		t.Fatal(err)
	}
	queuedErr := make(chan error, 1)
	go func() {
		g2, err := s.Acquire(Key{Conn: 1, Req: 2}, time.Time{}, ClassInteractive)
		if err == nil {
			g2.Done()
		}
		queuedErr <- err
	}()
	waitQueued(t, s, 1)
	// Slot taken, queue full: the third arrival must fail fast.
	if _, err := s.Acquire(Key{Conn: 1, Req: 3}, time.Time{}, ClassInteractive); !errors.Is(err, ErrBusy) {
		t.Fatalf("Acquire with full queue = %v, want ErrBusy", err)
	}
	st := s.Stats()
	if st.Busy != 1 || st.Running != 1 || st.Queued != 1 {
		t.Fatalf("stats %+v, want Busy=1 Running=1 Queued=1", st)
	}
	g.Done()
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
}

func TestZeroQueueIsPureLimiter(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 1, MaxQueue: 0})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := s.Acquire(Key{Req: 1}, time.Time{}, 0)
	if _, err := s.Acquire(Key{Req: 2}, time.Time{}, 0); !errors.Is(err, ErrBusy) {
		t.Fatalf("second acquire = %v, want ErrBusy", err)
	}
	g.Done()
	g2, err := s.Acquire(Key{Req: 3}, time.Time{}, 0)
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	g2.Done()
}

func TestExpiredShedAtDequeue(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 1, MaxQueue: 4, Policy: EDF{}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Acquire(Key{Req: 1}, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Queue one entry whose deadline will pass while it waits, and one
	// without a deadline that must still be served.
	errs := make(chan error, 2)
	go func() {
		_, err := s.Acquire(Key{Req: 2}, time.Now().Add(20*time.Millisecond), 0)
		errs <- err
	}()
	done := make(chan struct{})
	go func() {
		g3, err := s.Acquire(Key{Req: 3}, time.Time{}, 0)
		errs <- err
		if err == nil {
			g3.Done()
		}
		close(done)
	}()
	waitQueued(t, s, 2)
	time.Sleep(40 * time.Millisecond) // let req 2's deadline lapse in the queue
	g.Done()
	<-done
	var sawExpired, sawGrant bool
	for i := 0; i < 2; i++ {
		switch err := <-errs; {
		case err == nil:
			sawGrant = true
		case errors.Is(err, ErrExpired):
			sawExpired = true
		default:
			t.Fatalf("unexpected acquire error %v", err)
		}
	}
	if !sawExpired || !sawGrant {
		t.Fatalf("want one expired shed and one grant (expired=%v grant=%v)", sawExpired, sawGrant)
	}
	st := s.Stats()
	if st.Expired != 1 || st.Running != 0 || st.Queued != 0 {
		t.Fatalf("stats %+v, want Expired=1 and an idle scheduler", st)
	}
}

func TestCancelQueued(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 1, MaxQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := s.Acquire(Key{Req: 1}, time.Time{}, 0)
	acqErr := make(chan error, 1)
	go func() {
		_, err := s.Acquire(Key{Req: 2}, time.Time{}, 0)
		acqErr <- err
	}()
	waitQueued(t, s, 1)
	if !s.Cancel(Key{Req: 2}) {
		t.Fatal("Cancel did not find the queued entry")
	}
	if err := <-acqErr; !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled acquire = %v, want ErrCanceled", err)
	}
	if st := s.Stats(); st.Queued != 0 || st.Canceled != 1 {
		t.Fatalf("stats %+v, want Queued=0 Canceled=1", st)
	}
	// The freed queue slot is immediately reusable.
	g.Done()
	g2, err := s.Acquire(Key{Req: 4}, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	g2.Done()
	if s.Cancel(Key{Req: 99}) {
		t.Fatal("Cancel of an unknown key should report false")
	}
}

func TestCancelRunning(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 1, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Acquire(Key{Conn: 7, Req: 1}, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.IsCanceled() {
		t.Fatal("fresh grant reports canceled")
	}
	if !s.Cancel(Key{Conn: 7, Req: 1}) {
		t.Fatal("Cancel did not find the running entry")
	}
	select {
	case <-g.Canceled():
	case <-time.After(time.Second):
		t.Fatal("Canceled channel never closed")
	}
	if !g.IsCanceled() {
		t.Fatal("IsCanceled false after cancel")
	}
	// Double cancel is harmless (no double close).
	if !s.Cancel(Key{Conn: 7, Req: 1}) {
		t.Fatal("second Cancel of a still-running entry should find it")
	}
	g.Done()
	g.Done() // Done is idempotent
	if st := s.Stats(); st.Running != 0 || st.Canceled != 1 || st.Done != 1 {
		t.Fatalf("stats %+v, want Running=0 Canceled=1 Done=1", st)
	}
}

func TestEDFServiceOrder(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 1, MaxQueue: 8, Policy: EDF{}})
	if err != nil {
		t.Fatal(err)
	}
	gate, err := s.Acquire(Key{Req: 100}, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Enqueue in reverse-deadline order; EDF must serve them earliest
	// first regardless of arrival.
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	far := time.Now().Add(time.Hour)
	for i := 4; i >= 1; i-- {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := s.Acquire(Key{Req: uint64(i)}, far.Add(time.Duration(i)*time.Minute), 0)
			if err != nil {
				t.Errorf("acquire %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			g.Done()
		}()
		// Serialise arrivals so each is queued before the next starts.
		waitQueued(t, s, 5-i)
	}
	gate.Done()
	wg.Wait()
	if fmt.Sprint(order) != "[1 2 3 4]" {
		t.Fatalf("EDF service order %v, want [1 2 3 4]", order)
	}
}

func TestConcurrencyNeverExceedsLimit(t *testing.T) {
	const limit = 4
	s, err := New(Config{MaxConcurrent: limit, MaxQueue: 1024, Policy: EDF{}})
	if err != nil {
		t.Fatal(err)
	}
	var cur, high atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := s.Acquire(Key{Req: uint64(i)}, time.Now().Add(time.Hour), i%2)
			if err != nil {
				t.Errorf("acquire %d: %v", i, err)
				return
			}
			n := cur.Add(1)
			for {
				h := high.Load()
				if n <= h || high.CompareAndSwap(h, n) {
					break
				}
			}
			time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
			cur.Add(-1)
			g.Done()
		}()
	}
	wg.Wait()
	if h := high.Load(); h > limit {
		t.Fatalf("high-water concurrency %d exceeds limit %d", h, limit)
	}
	st := s.Stats()
	if st.Running != 0 || st.Queued != 0 || st.Admitted != 200 || st.Done != 200 {
		t.Fatalf("final stats %+v, want idle with 200 admitted/done", st)
	}
}

func TestDuplicateKeyRejected(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 2, MaxQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Acquire(Key{Conn: 1, Req: 1}, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Acquire(Key{Conn: 1, Req: 1}, time.Time{}, 0); err == nil {
		t.Fatal("duplicate key should be rejected")
	}
	g.Done()
}

// TestAcquireFastPathAllocs pins the cost of passing a free slot: Acquire
// allocates the grant, with its entry inside, and nothing else — no ready
// channel (nothing queues) and no cancel channel (nobody asked for one).
func TestAcquireFastPathAllocs(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 2, MaxQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	var req uint64
	allocs := testing.AllocsPerRun(200, func() {
		req++
		g, err := s.Acquire(Key{Conn: 1, Req: req}, time.Time{}, ClassInteractive)
		if err != nil {
			t.Fatal(err)
		}
		if g.IsCanceled() {
			t.Fatal("fresh grant reads canceled")
		}
		g.Done()
	})
	if allocs > 1 {
		t.Fatalf("Acquire+Done on a free slot allocates %.0f objects, want ≤ 1", allocs)
	}
}

// TestCanceledEitherOrder: the cancel channel is made on demand, so it
// must close whether a handler asks for it before the cancel arrives or
// after.
func TestCanceledEitherOrder(t *testing.T) {
	s, err := New(Config{MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	early, err := s.Acquire(Key{Req: 1}, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	late, err := s.Acquire(Key{Req: 2}, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	asked := early.Canceled()
	select {
	case <-asked:
		t.Fatal("cancel channel closed before any cancel")
	default:
	}
	for _, req := range []uint64{1, 2} {
		if !s.Cancel(Key{Req: req}) {
			t.Fatalf("cancel of running request %d found nothing", req)
		}
	}
	for name, ch := range map[string]<-chan struct{}{"asked before": asked, "asked after": late.Canceled()} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("cancel channel %s the cancel never closed", name)
		}
	}
	if !early.IsCanceled() || !late.IsCanceled() {
		t.Fatal("IsCanceled false after cancel")
	}
	if s.Cancel(Key{Req: 1}); s.Stats().Canceled != 2 {
		t.Fatalf("canceled = %d after a repeated cancel, want 2", s.Stats().Canceled)
	}
	early.Done()
	late.Done()
}
