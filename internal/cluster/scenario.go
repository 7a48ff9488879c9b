package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/hec"
	"repro/internal/routing"
	"repro/internal/transport"
)

// Scripted fault injection: a Scenario is a timeline of actions fired
// against live servers while a fleet run is in flight — kill a replica at
// t, inflate a straggler's service time, partition a tier, flap a
// replica's health. The engine is deliberately dumb: actions are plain
// closures over *transport.Server / *routing.ReplicaSet handles, the
// trigger is wall-clock time plus an optional completed-window threshold,
// and everything the faults caused is read back out of the routing
// layer's own counters (TierStatus) rather than bookkeeping of our own.

// TierStatus is one remote tier's routing view over a run: which policy
// routed it, how much admission control shed, and every replica's
// request/failure/busy/expel/readmit counters plus its scraped scheduler
// backlog. In Stats.Tiers the counters are deltas over the run; from
// TierStatuses they are absolute.
type TierStatus struct {
	// Layer is the tier's position in the hierarchy (edge or cloud).
	Layer hec.Layer
	// Policy is the replica-choice policy's name.
	Policy string
	// Shed is how many requests admission control refused.
	Shed uint64
	// Replicas holds per-replica routing counters, in configuration order.
	Replicas []routing.ReplicaStatus
}

// String renders the tier as one line per replica.
func (t TierStatus) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v tier [%s] shed=%d", t.Layer, t.Policy, t.Shed)
	for i, r := range t.Replicas {
		fmt.Fprintf(&b, "\n  replica %d %s healthy=%v req=%d fail=%d busy=%d expel=%d readmit=%d evict=%d",
			i, r.Addr, r.Healthy, r.Requests, r.Failures, r.Busy, r.Expels, r.Readmits, r.EvictedConns)
		if r.QueueDepth > 0 || r.Canceled > 0 {
			fmt.Fprintf(&b, " queue=%d canceled=%d", r.QueueDepth, r.Canceled)
		}
	}
	return b.String()
}

// StatusSource is the routing-introspection surface a tier exposes;
// *routing.ReplicaSet satisfies it. A Device remote that implements it
// shows up in TierStatuses and in every run's Stats.Tiers.
type StatusSource interface {
	Status() []routing.ReplicaStatus
	PolicyName() string
	Shed() uint64
}

var _ StatusSource = (*routing.ReplicaSet)(nil)

// HealthChecker forces one synchronous health-probe round;
// *routing.ReplicaSet satisfies it. Scenarios use it to make expel and
// readmit deterministic instead of racing the background prober.
type HealthChecker interface {
	CheckHealth()
}

var _ HealthChecker = (*routing.ReplicaSet)(nil)

// TierStatuses snapshots every remote tier of dev that exposes routing
// introspection, in layer order. Counters are absolute (process lifetime);
// run-scoped deltas are what lands in Stats.Tiers.
func TierStatuses(dev *Device) []TierStatus {
	if dev == nil {
		return nil
	}
	var out []TierStatus
	for l := hec.Layer(0); l < hec.NumLayers; l++ {
		src, ok := dev.Remotes[l].(StatusSource)
		if !ok {
			continue
		}
		out = append(out, TierStatus{
			Layer:    l,
			Policy:   src.PolicyName(),
			Shed:     src.Shed(),
			Replicas: src.Status(),
		})
	}
	return out
}

// tierDeltas subtracts the before snapshot from the after snapshot so a
// run's Stats report only the routing activity that run caused. Healthy,
// InFlight and QueueDepth are point-in-time states and come from after
// as-is.
func tierDeltas(before, after []TierStatus) []TierStatus {
	prev := make(map[hec.Layer]TierStatus, len(before))
	for _, t := range before {
		prev[t.Layer] = t
	}
	out := make([]TierStatus, 0, len(after))
	for _, t := range after {
		b, ok := prev[t.Layer]
		if ok && len(b.Replicas) == len(t.Replicas) {
			t.Shed -= b.Shed
			rs := make([]routing.ReplicaStatus, len(t.Replicas))
			copy(rs, t.Replicas)
			for i := range rs {
				rs[i].Requests -= b.Replicas[i].Requests
				rs[i].Failures -= b.Replicas[i].Failures
				rs[i].Busy -= b.Replicas[i].Busy
				rs[i].Canceled -= b.Replicas[i].Canceled
				rs[i].Expels -= b.Replicas[i].Expels
				rs[i].Readmits -= b.Replicas[i].Readmits
				rs[i].EvictedConns -= b.Replicas[i].EvictedConns
			}
			t.Replicas = rs
		}
		out = append(out, t)
	}
	return out
}

// Action is one scripted fault (or repair). Apply must be safe to call
// from the scenario goroutine while the fleet is dispatching.
type Action interface {
	// Describe names the action for logs and error messages.
	Describe() string
	// Apply performs the action.
	Apply() error
}

type funcAction struct {
	desc string
	fn   func() error
}

func (a funcAction) Describe() string { return a.desc }
func (a funcAction) Apply() error     { return a.fn() }

// ActionFunc wraps an arbitrary closure as a scenario action — the escape
// hatch for faults the built-ins don't cover.
func ActionFunc(desc string, fn func() error) Action {
	return funcAction{desc: desc, fn: fn}
}

// Kill closes srv outright: listener and every live connection die, and
// in-flight requests on it fail with transport.ErrConn — the crash-stop
// fault the failover path must absorb.
func Kill(srv *transport.Server) Action {
	return funcAction{
		desc: fmt.Sprintf("kill %s", srv.Addr()),
		fn:   func() error { return srv.Close() },
	}
}

// Straggle inflates srv's per-request service time by d (charged outside
// the server's measured processing time, so clients see it as network
// delay). Health probes are exempt, so a straggler stays in the rotation
// — exactly the fault a load-aware policy must route around and a
// pathological one concentrates on.
func Straggle(srv *transport.Server, d time.Duration) Action {
	return funcAction{
		desc: fmt.Sprintf("straggle %s by %v", srv.Addr(), d),
		fn:   func() error { srv.SetFaultDelay(d); return nil },
	}
}

// PartitionAction drops srv off the network: existing connections are
// severed and new ones refused, while the process stays up. Heal undoes
// it.
func PartitionAction(srv *transport.Server) Action {
	return funcAction{
		desc: fmt.Sprintf("partition %s", srv.Addr()),
		fn:   func() error { srv.Partition(true); return nil },
	}
}

// Heal reverses PartitionAction and Straggle: the server accepts
// connections again at normal service time.
func Heal(srv *transport.Server) Action {
	return funcAction{
		desc: fmt.Sprintf("heal %s", srv.Addr()),
		fn: func() error {
			srv.Partition(false)
			srv.SetFaultDelay(0)
			return nil
		},
	}
}

// Probe forces one synchronous health-check round on a tier, making the
// expel (while partitioned) or readmit (after heal) land deterministically
// instead of waiting out the background prober's interval.
func Probe(hc HealthChecker) Action {
	return funcAction{
		desc: "probe tier health",
		fn:   func() error { hc.CheckHealth(); return nil },
	}
}

// Event schedules one action: it fires once both gates pass — At elapsed
// since the run started AND AfterWindows windows completed fleet-wide.
// The zero value of either gate passes immediately, so a pure-time or
// pure-progress trigger needs only one field.
type Event struct {
	// At is the earliest elapsed run time the action may fire.
	At time.Duration
	// AfterWindows is the minimum number of completed windows before the
	// action may fire — the guard that makes "kill mid-run" deterministic
	// under -race slowdowns, where wall-clock offsets drift.
	AfterWindows int64
	// Action is what fires.
	Action Action
}

// FlapEvents scripts a replica flapping on and off the network: cycles
// repetitions of partition → forced expel probe → heal → forced readmit
// probe, each half-cycle lasting half, starting at start. The run's
// Stats.Tiers must then show Expels ≥ cycles and Readmits ≥ cycles on the
// victim.
func FlapEvents(srv *transport.Server, hc HealthChecker, start, half time.Duration, cycles int) []Event {
	var evs []Event
	for i := 0; i < cycles; i++ {
		base := start + time.Duration(2*i)*half
		evs = append(evs,
			Event{At: base, Action: PartitionAction(srv)},
			Event{At: base + half/2, Action: Probe(hc)},
			Event{At: base + half, Action: Heal(srv)},
			Event{At: base + 3*half/2, Action: Probe(hc)},
		)
	}
	return evs
}

// Scenario is a named, scripted fault timeline driven against a fleet
// run. Events fire in timeline order; an event that never becomes
// eligible before the run ends is an error (the script asked for a fault
// the run was too short to deliver).
type Scenario struct {
	Name   string
	Events []Event
}

// scenarioRunner drives a Scenario's timeline on its own goroutine,
// polling the fleet's elapsed clock and window counter. A progress gate is
// not left to the poll: gate holds the window count the next
// AfterWindows-gated event waits for, and the device that completes that
// window hands the runner a pass over sync and waits for it (reached).
type scenarioRunner struct {
	sc      *Scenario
	start   time.Time
	windows *atomic.Int64
	gate    atomic.Int64
	sync    chan chan struct{}
	quit    chan struct{}
	done    chan struct{}

	// events is the timeline in firing order; fired marks what has fired.
	// Both belong to the run goroutine once it starts.
	events []Event
	fired  []bool
	err    error
}

func (sc *Scenario) start(start time.Time, windows *atomic.Int64) *scenarioRunner {
	r := &scenarioRunner{
		sc:      sc,
		start:   start,
		windows: windows,
		sync:    make(chan chan struct{}),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		events:  append([]Event(nil), sc.Events...),
		fired:   make([]bool, len(sc.Events)),
	}
	sort.SliceStable(r.events, func(i, j int) bool { return r.events[i].At < r.events[j].At })
	// The first gate is set before any window completes, so a fleet that
	// outruns the runner goroutine's start still stops at it.
	r.setGate()
	go r.run()
	return r
}

// setGate points the gate at the lowest window count an unfired event
// still waits for; an event whose count has passed waits only on its At,
// which the runner's tick serves.
func (r *scenarioRunner) setGate() {
	n, g := r.windows.Load(), int64(math.MaxInt64)
	for i, ev := range r.events {
		if !r.fired[i] && ev.AfterWindows > n {
			g = min(g, ev.AfterWindows)
		}
	}
	r.gate.Store(g)
}

// reached is told the fleet's count n after each completed window. The
// device that reaches the progress gate runs a pass of the timeline and
// waits for it, so an event gated on AfterWindows fires before that device
// starts another window, not at the runner's next tick: a fast fleet would
// otherwise finish the run in between. A nil runner does nothing.
func (r *scenarioRunner) reached(n int64) {
	if r == nil {
		return
	}
	g := r.gate.Load()
	if n < g || !r.gate.CompareAndSwap(g, math.MaxInt64) {
		return
	}
	ack := make(chan struct{})
	select {
	case r.sync <- ack:
		<-ack
	case <-r.done:
	}
}

func (r *scenarioRunner) run() {
	defer close(r.done)
	events, fired := r.events, r.fired
	var errs []error
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	pass := func() bool {
		all := true
		elapsed := time.Since(r.start)
		n := r.windows.Load()
		for i, ev := range events {
			if fired[i] {
				continue
			}
			if elapsed >= ev.At && n >= ev.AfterWindows {
				fired[i] = true
				if err := ev.Action.Apply(); err != nil {
					errs = append(errs, fmt.Errorf("scenario %q: %s: %w", r.sc.Name, ev.Action.Describe(), err))
				}
				continue
			}
			all = false
		}
		return all
	}
	for {
		select {
		case <-r.quit:
			// Final pass: fire anything that became eligible as the run
			// finished, then flag events the run never reached.
			pass()
			for i, ev := range events {
				if !fired[i] {
					errs = append(errs, fmt.Errorf("scenario %q: %s (at %v, after %d windows) never fired: run ended first",
						r.sc.Name, ev.Action.Describe(), ev.At, ev.AfterWindows))
				}
			}
			r.err = errors.Join(errs...)
			return
		case ack := <-r.sync:
			all := pass()
			r.setGate()
			close(ack)
			if all {
				r.err = errors.Join(errs...)
				return
			}
		case <-tick.C:
			if pass() {
				r.err = errors.Join(errs...)
				return
			}
		}
	}
}

// stop waits for the timeline to finish (or flags unfired events) and
// returns the scenario's accumulated error.
func (r *scenarioRunner) stop() error {
	close(r.quit)
	<-r.done
	return r.err
}
