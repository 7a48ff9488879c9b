package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/hec"
	"repro/internal/routing"
	"repro/internal/sched"
	"repro/internal/transport"
)

// remoteTiers are the layers served by a node of their own.
var remoteTiers = [...]hec.Layer{hec.LayerEdge, hec.LayerCloud}

// verdict is what the oracle keeps of a detection and what every measured
// result must reproduce.
type verdict struct {
	anomaly, confident bool
	layer              repro.Layer
}

func verdictOf(d repro.Detection) verdict { return verdict{d.Anomaly, d.Confident, d.Layer} }

// stack is one workload's running system: the built models, one node per
// remote tier on loopback TCP, and one session per device.
type stack struct {
	w       workload
	sys     *repro.System
	nodes   [hec.NumLayers]*transport.Server
	devs    []*device     // the devices whose sessions are opened the documented way
	traced  []*device     // traced stacks only: a second set of devices behind the tracing wrappers
	windows [][][]float64 // the test windows, by sample index
	oracle  []verdict     // by sample index
	order   []int         // seed-shuffled sample indices
	seed    int64
	pos     atomic.Int64 // the next position of the endlessly repeated order to be sent

	ready      bool   // set-up finished; the counters are meaningful
	direct     uint64 // requests the benchmark sent to a node itself, below routing
	goroutines int    // running before set-up, for the leak check
}

// newStack builds the workload's system and brings it up: repro.Build, the
// tier nodes, the devices' sessions (dial and hello), the oracle pass and
// the warm-up. Its duration is the workload's set-up time. With traced set,
// a second set of devices is opened whose sessions run behind the tracing
// wrappers, against the same nodes.
func newStack(w workload, seed int64, traced bool) (_ *stack, err error) {
	st := &stack{w: w, seed: seed, goroutines: runtime.NumGoroutine()}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	st.sys, err = repro.Build(w.kind, repro.WithFast(), repro.WithSeed(buildSeed))
	if err != nil {
		return nil, err
	}
	if err := st.serve(); err != nil {
		return nil, err
	}
	st.windows = make([][][]float64, len(st.sys.TestSamples))
	for i, s := range st.sys.TestSamples {
		st.windows[i] = s.Frames
	}
	st.order = sampleOrder(seed, len(st.windows))
	if err := st.judgeOracle(); err != nil {
		return nil, err
	}
	epoch := time.Now()
	for c := 0; c < devices; c++ {
		dv, err := newDevice(st, c, false, epoch)
		if err != nil {
			return nil, err
		}
		st.devs = append(st.devs, dv)
	}
	for c := 0; traced && c < devices; c++ {
		dv, err := newDevice(st, c, true, epoch)
		st.traced = append(st.traced, dv)
		if err != nil {
			return nil, err
		}
	}
	perPass := (len(st.order) + devices*w.batch - 1) / (devices * w.batch)
	for _, devs := range [][]*device{st.devs, st.traced} {
		if len(devs) == 0 {
			continue
		}
		if warm := st.run(devs, 0, warmupPasses*perPass, 0); warm.failed > 0 {
			return nil, fmt.Errorf("warm-up: %d of %d calls failed: %s", warm.failed, warm.calls, warm.firstFailure)
		}
	}
	st.ready = true
	return st, nil
}

// serve starts one node per remote tier on loopback TCP, configured as a
// `hecnode -sched fifo` is by default.
func (st *stack) serve() error {
	dep := st.sys.Deployment
	for _, l := range remoteTiers {
		execMs, err := dep.Topology.ExecTimeFunc(l, dep.Detectors[l], dep.Recurrent)
		if err != nil {
			return err
		}
		st.nodes[l], err = transport.ServeWith("127.0.0.1:0", dep.Detectors[l], transport.ServerOptions{
			ExecMs: execMs,
			Sched:  &sched.Config{MaxConcurrent: runtime.GOMAXPROCS(0), MaxQueue: 64},
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// judgeOracle pushes every test window once through an in-process session of
// the workload's scheme, with no remotes. Batched and single-window, local
// and over the wire, the program promises bit-identical verdicts, so every
// later result has to match these.
func (st *stack) judgeOracle() error {
	sess, err := st.sys.Open(st.w.scheme)
	if err != nil {
		return err
	}
	defer sess.Close()
	st.oracle = make([]verdict, len(st.windows))
	for i, win := range st.windows {
		d, err := sess.Detect(context.Background(), win)
		if err != nil {
			return fmt.Errorf("oracle, window %d: %w", i, err)
		}
		st.oracle[i] = verdictOf(d)
	}
	return nil
}

// newDevice opens device c's own session, as a real IoT node would: one
// replica and one connection per remote tier, no injected link delay.
func newDevice(st *stack, c int, traced bool, epoch time.Time) (*device, error) {
	dv := &device{id: c, st: st}
	if !traced {
		var err error
		dv.sess, err = st.sys.Open(st.w.scheme,
			repro.WithRemoteAddrs(repro.LayerEdge, st.nodes[hec.LayerEdge].Addr()),
			repro.WithRemoteAddrs(repro.LayerCloud, st.nodes[hec.LayerCloud].Addr()),
			repro.WithPoolSize(1))
		if err != nil {
			return nil, err
		}
		return dv, nil
	}
	// The wrappers go on a shallow copy of the system that only this device
	// uses; the shared one stays as built.
	dv.buf = newSpanBuf(epoch)
	sys, dep := *st.sys, *st.sys.Deployment
	dep.Detectors[hec.LayerIoT] = &tracedDetector{Detector: dep.Detectors[hec.LayerIoT], buf: dv.buf}
	sys.Deployment = &dep
	sys.Extractor = &tracedExtractor{Extractor: sys.Extractor, buf: dv.buf}
	var opts []repro.SessionOption
	for _, l := range remoteTiers {
		set, err := routing.New(routing.Config{Addrs: []string{st.nodes[l].Addr()}, PoolSize: 1})
		if err != nil {
			return dv, err
		}
		dv.sets[l] = set
		route, serving := remoteSpans(l)
		opts = append(opts, repro.WithRemote(l, &tracedRemote{set: set, route: route, serving: serving, buf: dv.buf}))
	}
	var err error
	dv.sess, err = sys.Open(st.w.scheme, opts...)
	return dv, err
}

// counters are the counts the program keeps itself, summed over the
// devices' replica sets (the first five) and over the tier nodes.
type counters [numCounters]uint64

const (
	cRequests = iota
	cFailures
	cRoutingBusy
	cShed
	cEvicted
	cAdmitted
	cDone
	cSchedBusy
	cExpired
	cCanceled
	cRunning
	cQueued
	numCounters
)

// allDevices lists the untraced and the traced devices.
func (st *stack) allDevices() []*device {
	return append(st.devs[:len(st.devs):len(st.devs)], st.traced...)
}

func (st *stack) counters() counters {
	var c counters
	for _, dv := range st.allDevices() {
		for _, t := range dv.sess.TierStatus() {
			c[cShed] += t.Shed
			for _, r := range t.Replicas {
				c[cRequests] += r.Requests
				c[cFailures] += r.Failures
				c[cRoutingBusy] += r.Busy
				c[cEvicted] += r.EvictedConns
			}
		}
	}
	for _, l := range remoteTiers {
		s, _ := st.nodes[l].SchedStats()
		c[cAdmitted] += s.Admitted
		c[cDone] += s.Done
		c[cSchedBusy] += s.Busy
		c[cExpired] += s.Expired
		c[cCanceled] += s.Canceled
		c[cRunning] += uint64(s.Running)
		c[cQueued] += uint64(s.Queued)
	}
	return c
}

// addSince adds to c what the counters grew by between two readings.
func (c *counters) addSince(before, after counters) {
	for i := range c {
		c[i] += after[i] - before[i]
	}
}

// close checks that the program's own counters conserve, shuts the stack
// down and checks that it left no goroutine behind. It returns what it found
// wrong.
func (st *stack) close() (problems []string) {
	all := st.allDevices()
	if st.ready {
		var remote uint64
		for _, dv := range all {
			remote += dv.remote
		}
		c := st.counters()
		if c[cRequests] != remote {
			problems = append(problems, fmt.Sprintf("routing.requests = %d, but the devices made %d remote calls", c[cRequests], remote))
		}
		if c[cAdmitted] != c[cDone] || c[cRunning] != 0 || c[cQueued] != 0 {
			problems = append(problems, fmt.Sprintf("scheduler does not conserve: admitted %d, done %d, running %d, queued %d",
				c[cAdmitted], c[cDone], c[cRunning], c[cQueued]))
		}
		if c[cAdmitted] != remote+st.direct {
			problems = append(problems, fmt.Sprintf("sched.admitted = %d, but the devices made %d remote calls and the replay %d",
				c[cAdmitted], remote, st.direct))
		}
	}
	for _, dv := range all {
		if dv.sess != nil {
			dv.sess.Close()
		}
		for _, set := range dv.sets {
			if set != nil {
				set.Close()
			}
		}
	}
	for _, n := range st.nodes {
		if n != nil {
			n.Close()
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > st.goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > st.goroutines {
		problems = append(problems, fmt.Sprintf("%d goroutines leaked after close", n-st.goroutines))
	}
	return problems
}

// round is what one stretch of load produced.
type round struct {
	wall         time.Duration
	calls        int // attempted
	windows      int // judged and matching the oracle
	failed       int // calls that erred, timed out or contradicted the oracle
	firstFailure string
	latMs        []float64 // per call; from the due instant in an open loop
	lateMs       []float64 // open loop: issue time − due time
	netMs        []float64 // per call, as the program reports it
	backlogMax   int       // open loop: most arrivals due but not yet taken
	backlogEnd   int       // open loop: calls still unfinished at the rounds' nominal ends
	layers       [hec.NumLayers]int
	usage        usage
}

// add folds into r what another device saw in the same round, or another
// round of the same load.
func (r *round) add(o round) {
	r.wall += o.wall
	r.calls += o.calls
	r.windows += o.windows
	r.failed += o.failed
	if r.firstFailure == "" {
		r.firstFailure = o.firstFailure
	}
	r.latMs = append(r.latMs, o.latMs...)
	r.lateMs = append(r.lateMs, o.lateMs...)
	r.netMs = append(r.netMs, o.netMs...)
	r.backlogMax = max(r.backlogMax, o.backlogMax)
	r.backlogEnd += o.backlogEnd
	for l, n := range o.layers {
		r.layers[l] += n
	}
	r.usage.cpu += o.usage.cpu
	r.usage.mallocs += o.usage.mallocs
	r.usage.bytes += o.usage.bytes
	r.usage.gcCycles += o.usage.gcCycles
	r.usage.gcPause += o.usage.gcPause
}

// run drives the devices for one round and gathers what they saw. A closed
// loop runs for length, or, when calls > 0, for that many calls per device;
// an open loop works through the round's seeded schedule.
func (st *stack) run(devs []*device, length time.Duration, calls int, roundNo int) round {
	var due []time.Duration
	if st.w.rate > 0 && calls == 0 {
		due = arrivals(st.seed, roundNo, st.w.rate, length)
	}
	for _, dv := range devs {
		dv.reset()
	}
	runtime.GC()
	before := readUsage()
	start := time.Now()
	sch := &schedule{start: start, end: start.Add(length), due: due}
	var wg sync.WaitGroup
	for _, dv := range devs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch {
			case calls > 0:
				for i := 0; i < calls; i++ {
					dv.call(time.Time{}, sch)
				}
			case due != nil:
				dv.openLoop(sch)
			default:
				for time.Now().Before(sch.end) {
					dv.call(time.Time{}, sch)
				}
			}
		}()
	}
	wg.Wait()
	r := round{wall: time.Since(start), usage: readUsage().since(before)}
	for _, dv := range devs {
		r.add(dv.seen) // copies the samples out of the device's reused buffers
	}
	return r
}
