package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/hec"
	"repro/internal/routing"
)

// schedule is what the devices of one round share: its time frame and, in
// an open loop, the due offsets and the index of the next one to take.
type schedule struct {
	start, end time.Time
	due        []time.Duration
	next       atomic.Int64
}

// device is one IoT node: its own session, and what it saw in the round.
type device struct {
	id   int
	st   *stack
	sess *repro.Session
	sets [hec.NumLayers]*routing.ReplicaSet // traced stacks only; the stack closes them
	buf  *spanBuf                           // nil unless traced

	remote uint64 // remote calls this device's results imply, over the session's life
	seen   round  // what this device saw in the current round

	batch [][][]float64 // the call's windows and their sample indices, reused
	idx   []int
}

// reset empties the device's view of the round, keeping the sample buffers.
func (dv *device) reset() {
	dv.seen = round{latMs: dv.seen.latMs[:0], lateMs: dv.seen.lateMs[:0], netMs: dv.seen.netMs[:0]}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop takes the next due arrival as soon as the device is free, sleeps
// until it is due if it is not, and times the call from its due instant, so
// the wait a burst or a stall imposes on later windows is counted. Every
// arrival of the schedule is attempted exactly once.
func (dv *device) openLoop(sch *schedule) {
	for {
		i := int(sch.next.Add(1)) - 1
		if i >= len(sch.due) {
			return
		}
		due := sch.start.Add(sch.due[i])
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		// Arrivals already due that no device has taken yet.
		elapsed := time.Since(sch.start)
		upto := sort.Search(len(sch.due), func(j int) bool { return sch.due[j] > elapsed })
		dv.seen.backlogMax = max(dv.seen.backlogMax, upto-int(sch.next.Load()))
		dv.call(due, sch)
	}
}

// call sends the device's next windows through its session and checks the
// result against the oracle. A zero due time marks a closed-loop call.
func (dv *device) call(due time.Time, sch *schedule) {
	st := dv.st
	// Whichever device is free takes the next windows of the order. Fixed
	// shares would let the device that drew the cheaper windows send more of
	// them, and the mix of work would depend on the seed.
	dv.batch, dv.idx = dv.batch[:0], dv.idx[:0]
	first := int(st.pos.Add(int64(st.w.batch))) - st.w.batch
	for k := 0; k < st.w.batch; k++ {
		i := st.order[(first+k)%len(st.order)]
		dv.batch, dv.idx = append(dv.batch, st.windows[i]), append(dv.idx, i)
	}

	from := time.Now()
	if !due.IsZero() {
		dv.seen.lateMs = append(dv.seen.lateMs, ms(from.Sub(due)))
		from = due
	}
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	var root int32
	if dv.buf != nil {
		root = dv.buf.begin(spanSession)
	}
	var (
		one  [1]repro.Detection
		dets []repro.Detection
		err  error
	)
	if st.w.batch == 1 {
		one[0], err = dv.sess.Detect(ctx, dv.batch[0])
		dets = one[:]
	} else {
		dets, err = dv.sess.DetectBatch(ctx, dv.batch)
	}
	if dv.buf != nil {
		dv.buf.end(root)
	}
	cancel()
	done := time.Now()
	seen := &dv.seen
	seen.latMs = append(seen.latMs, ms(done.Sub(from)))
	if !due.IsZero() && done.After(sch.end) {
		seen.backlogEnd++
	}

	seen.calls++
	if err != nil {
		seen.failed++
		dv.fail(fmt.Sprintf("device %d: %v", dv.id, err))
		return
	}
	dv.remote += remoteCalls(st.w.scheme, dets)
	var net float64
	ok := true
	for k, d := range dets {
		net += d.NetMs
		seen.layers[d.Layer]++
		if got, want := verdictOf(d), st.oracle[dv.idx[k]]; got != want {
			ok = false
			dv.fail(fmt.Sprintf("device %d, window %d: got %+v, oracle says %+v", dv.id, dv.idx[k], got, want))
		}
	}
	seen.netMs = append(seen.netMs, net)
	if ok {
		seen.windows += len(dets)
	} else {
		seen.failed++
	}
}

func (dv *device) fail(what string) {
	if dv.seen.firstFailure == "" {
		dv.seen.firstFailure = what
	}
}

// remoteCalls is how many requests a call's results say went over the wire:
// one per remote tier that judged any of its windows, and for the successive
// scheme also one per tier a window passed through on its way up.
func remoteCalls(scheme repro.Scheme, dets []repro.Detection) uint64 {
	var tier [hec.NumLayers]bool
	for _, d := range dets {
		tier[d.Layer] = true
		if scheme == repro.SchemeSuccessive {
			for l := hec.LayerEdge; l < d.Layer; l++ {
				tier[l] = true
			}
		}
	}
	var n uint64
	for _, l := range remoteTiers {
		if tier[l] {
			n++
		}
	}
	return n
}

// usage is the process's running totals of CPU time, allocation and
// collection — device and tier nodes together, since they share the process.
type usage struct {
	cpu            time.Duration
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage on the calling process with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  m.Mallocs,
		bytes:    m.TotalAlloc,
		gcCycles: m.NumGC,
		gcPause:  time.Duration(m.PauseTotalNs),
	}
}

func (u usage) since(before usage) usage {
	return usage{
		cpu:      u.cpu - before.cpu,
		mallocs:  u.mallocs - before.mallocs,
		bytes:    u.bytes - before.bytes,
		gcCycles: u.gcCycles - before.gcCycles,
		gcPause:  u.gcPause - before.gcPause,
	}
}
