// Package schedbench drives the canonical deadline-overload burst against
// a live scheduling server, the shared harness behind the hecbench
// scheduler comparison and the examples/cluster -sched demo (and the
// mirror of the transport package's H14-style CI test).
//
// The burst is deterministic by construction: one service slot, 32 jobs of
// 10 ms service time whose deadlines grow 11 ms per job index plus 20 ms
// slack, arriving in a fixed shuffled order while a holder request pins
// the slot. Because the deadline slope exceeds the service time, an EDF
// schedule is feasible — EDF meets every deadline — while any discipline
// that serves out of deadline order burns its slot on jobs whose deadlines
// already passed their feasibility window and must miss: FIFO lands at
// 20/32 under the pinned permutation and reverse-EDF lower still. Expired
// jobs cost the server nothing beyond their queue seat: the client's
// deadline fires first, its cancel frame withdraws the queued entry, and
// the scheduler sheds whatever expired entries remain at dequeue.
package schedbench

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/anomaly"
	"repro/internal/sched"
	"repro/internal/transport"
)

// Burst geometry. Kept identical to the transport package's H14 test so
// the CI gate, the benchmark JSON and the demo all measure one model.
const (
	burstJobs = 32
	serviceMs = 10
	slopeMs   = 11
	slackMs   = 20
)

// burstPerm is the fixed arrival order (a seeded shuffle of 0..31 pinned
// as a literal): job i carries deadline (i+1)*slope + slack from the burst
// anchor. Deterministic model: EDF 32/32 met, FIFO 20/32, reverse-EDF
// 18/32.
var burstPerm = [burstJobs]int{9, 24, 14, 10, 28, 1, 5, 3, 22, 21, 13, 12, 23, 16, 27, 6, 7, 29, 8, 25, 0, 26, 2, 30, 20, 31, 19, 11, 4, 17, 18, 15}

// Result is one policy's showing on the burst.
type Result struct {
	// Policy is the queue discipline's name.
	Policy string `json:"policy"`
	// Met is how many of Total jobs finished inside their deadline.
	Met   int `json:"met"`
	Total int `json:"total"`
	// HitRate is Met/Total.
	HitRate float64 `json:"hit_rate"`
	// P99MetMs is the 99th-percentile completion latency (ms from the
	// burst anchor) over the jobs that met their deadline. Survivorship
	// applies — a policy that sheds aggressively can post a flattering
	// number here — so HitRate is the headline metric and this is color.
	P99MetMs float64 `json:"p99_met_ms"`
	// Busy, Expired and Canceled are the server scheduler's counters
	// after the burst: queue-full refusals, entries shed at dequeue past
	// their deadline, and entries withdrawn by client cancel frames.
	Busy     uint64 `json:"busy"`
	Expired  uint64 `json:"expired"`
	Canceled uint64 `json:"canceled"`
}

// burstDetector paces the burst: a negative first value blocks until
// release is closed (the slot holder), a positive one sleeps that many
// milliseconds (one job's service time).
type burstDetector struct{ release chan struct{} }

func (burstDetector) Name() string { return "schedbench" }

func (d burstDetector) Detect(frames [][]float64) (anomaly.Verdict, error) {
	if len(frames) == 0 || len(frames[0]) == 0 {
		return anomaly.Verdict{}, fmt.Errorf("empty window")
	}
	switch v := frames[0][0]; {
	case v < 0:
		<-d.release
	case v > 0:
		time.Sleep(time.Duration(v * float64(time.Millisecond)))
	}
	return anomaly.Verdict{}, nil
}

func (burstDetector) NumParams() int           { return 1 }
func (burstDetector) FlopsPerWindow(int) int64 { return 1 }

// pollStats waits until cond holds on the server's scheduler stats.
func pollStats(srv *transport.Server, what string, cond func(sched.Stats) bool) error {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := srv.SchedStats(); ok && cond(st) {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := srv.SchedStats()
	return fmt.Errorf("schedbench: timed out waiting for %s (stats %+v)", what, st)
}

// RunBurst stands up a one-slot scheduling server running policy, drives
// the canonical overload burst through it, and reports how the policy
// fared. Each run takes a little over two seconds of wall clock (a fixed
// 1.5 s enqueue budget plus the burst itself).
func RunBurst(policy sched.Policy) (Result, error) {
	det := burstDetector{release: make(chan struct{})}
	srv, err := transport.ServeWith("127.0.0.1:0", det, transport.ServerOptions{
		Sched: &sched.Config{MaxConcurrent: 1, MaxQueue: burstJobs * 2, Policy: policy},
	})
	if err != nil {
		return Result{}, err
	}
	defer srv.Close()
	cli, err := transport.Dial(srv.Addr(), 0)
	if err != nil {
		return Result{}, err
	}
	defer cli.Close()

	// The holder pins the single slot so all 32 jobs are queued — in
	// burstPerm order, serialized by watching the queue grow — before any
	// service happens; the anchor gives enqueueing a fixed budget so every
	// deadline is relative to the moment service actually starts.
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		_, _ = cli.DetectContext(context.Background(), [][]float64{{-1}})
	}()
	if err := pollStats(srv, "holder running", func(st sched.Stats) bool { return st.Running == 1 }); err != nil {
		return Result{}, err
	}

	anchor := time.Now().Add(1500 * time.Millisecond)
	var mu sync.Mutex
	var metMs []float64
	var wg sync.WaitGroup
	for n, i := range burstPerm {
		deadline := anchor.Add(time.Duration(slopeMs*(i+1)+slackMs) * time.Millisecond)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithDeadline(context.Background(), deadline)
			defer cancel()
			if _, err := cli.DetectContext(ctx, [][]float64{{serviceMs}}); err == nil {
				ms := float64(time.Since(anchor)) / float64(time.Millisecond)
				mu.Lock()
				metMs = append(metMs, ms)
				mu.Unlock()
			}
		}()
		if err := pollStats(srv, "burst enqueued", func(st sched.Stats) bool { return st.Queued == n+1 }); err != nil {
			return Result{}, err
		}
	}
	if !time.Now().Before(anchor) {
		return Result{}, fmt.Errorf("schedbench: burst setup overran its %v anchor budget", 1500*time.Millisecond)
	}
	time.Sleep(time.Until(anchor))
	close(det.release)
	<-holderDone
	wg.Wait()

	st, _ := srv.SchedStats()
	res := Result{
		Policy:   policy.Name(),
		Met:      len(metMs),
		Total:    burstJobs,
		HitRate:  float64(len(metMs)) / burstJobs,
		Busy:     st.Busy,
		Expired:  st.Expired,
		Canceled: st.Canceled,
	}
	if len(metMs) > 0 {
		sort.Float64s(metMs)
		res.P99MetMs = metMs[(len(metMs)*99)/100]
	}
	return res, nil
}
