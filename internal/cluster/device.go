// Package cluster is the HEC runtime, the one engine that runs the paper's
// model-selection schemes. A Device plays the paper's IoT node — it hosts
// the smallest detector locally, runs the trained REINFORCE policy on every
// incoming window, and dispatches the window to the local detector or a
// remote layer, over keep-alive pipelined TCP connections or to tiers
// served in-process (Table II runs a Device over replayed detections). A
// load generator (loadgen.go) streams windows from many concurrent
// simulated devices and aggregates live accuracy, delay percentiles,
// routing mix and throughput.
//
// Delay accounting is uniform across schemes: execution time is always the
// calibrated simulated value (local topology model or the server's ExecMs),
// network time is always measured wall clock minus server processing (so it
// includes injected link delays), and a scheme's end-to-end delay is the sum
// of both over every layer it tried. Simulated and wall-clock milliseconds
// are never mixed within one term.
//
// A window is a batch of one: Run and RunBatch share one dispatch path, in
// which each scheme's rule is written once over a "judge these windows at
// layer l" step. A batch's measured network time is shared evenly across
// its windows — what each one cost the link once it rode along.
package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/anomaly"
	"repro/internal/features"
	"repro/internal/hec"
	"repro/internal/transport"
)

// Remote is a connection to one remote layer's detection service.
// *transport.Client, *transport.Pool and *routing.ReplicaSet all satisfy
// it — the last is how a Device gets a multi-replica tier with
// health-checked failover without knowing it (see internal/routing). The
// context carries cancellation and the deadline that transport propagates
// on the wire so overloaded tiers can shed expired work.
type Remote interface {
	DetectContext(ctx context.Context, frames [][]float64) (transport.DetectResult, error)
}

// BatchRemote is a Remote that can ship many windows per request.
// *transport.Client, *transport.Pool and *routing.ReplicaSet all satisfy
// it.
type BatchRemote interface {
	Remote
	DetectBatchContext(ctx context.Context, windows [][][]float64) (transport.BatchResult, error)
}

// PolicySource yields the action distribution π(·|z) for a context; it is
// satisfied by *policy.Network and by test stubs.
type PolicySource interface {
	Probs(z []float64) ([]float64, error)
}

// Scheme selects how a Device routes windows.
type Scheme int

// The live schemes: the paper's five plus a deliberately bad policy used to
// validate that the runtime's metrics can tell a good policy from a bad one.
const (
	// SchemeIoT always detects locally.
	SchemeIoT Scheme = iota
	// SchemeEdge always offloads to the edge service.
	SchemeEdge
	// SchemeCloud always offloads to the cloud service.
	SchemeCloud
	// SchemeSuccessive escalates until a confident verdict.
	SchemeSuccessive
	// SchemeAdaptive follows the trained policy's most-preferred layer.
	SchemeAdaptive
	// SchemePathological follows the trained policy's LEAST-preferred layer
	// (always-cloud when no policy is set) — an intentionally bad router
	// whose badness the live metrics must surface.
	SchemePathological
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeIoT:
		return "IoT Device"
	case SchemeEdge:
		return "Edge"
	case SchemeCloud:
		return "Cloud"
	case SchemeSuccessive:
		return "Successive"
	case SchemeAdaptive:
		return "Adaptive"
	case SchemePathological:
		return "Pathological"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// PolicyDriven reports whether the scheme routes by the policy, and so
// charges the policy overhead to every window's delay.
func (s Scheme) PolicyDriven() bool {
	return s == SchemeAdaptive || s == SchemePathological
}

// AllSchemes lists every live scheme in display order.
func AllSchemes() []Scheme {
	return []Scheme{SchemeIoT, SchemeEdge, SchemeCloud, SchemeSuccessive, SchemeAdaptive, SchemePathological}
}

// ParseScheme maps a CLI name to a scheme.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "iot":
		return SchemeIoT, nil
	case "edge":
		return SchemeEdge, nil
	case "cloud":
		return SchemeCloud, nil
	case "successive":
		return SchemeSuccessive, nil
	case "adaptive":
		return SchemeAdaptive, nil
	case "pathological":
		return SchemePathological, nil
	default:
		return 0, fmt.Errorf("cluster: unknown scheme %q (iot|edge|cloud|successive|adaptive|pathological)", name)
	}
}

// Device is one live IoT node: a local detector plus connections to the
// higher layers and the trained routing policy. A Device is stateless per
// call and safe for concurrent use (detector and policy inference are
// read-only; remotes are concurrency-safe). The one mutable piece is the
// local detector, which SwapLocal can replace atomically while windows are
// streaming — the hot-swap half of model distribution.
type Device struct {
	// Local is the IoT-layer detector. SwapLocal supersedes it at runtime
	// without mutating the field, so construction-time configuration stays
	// data-race-free.
	Local anomaly.Detector
	// LocalExecMs simulates the local execution time (window length → ms);
	// nil charges zero, which only makes sense in unit tests.
	LocalExecMs func(frames int) float64
	// Remotes holds connections per layer; Remotes[LayerIoT] is ignored and
	// the entries for layers a scheme never touches may be nil.
	Remotes [hec.NumLayers]Remote
	// Policy drives the Adaptive and Pathological schemes.
	Policy PolicySource
	// Extractor maps a window to the policy context.
	Extractor features.Extractor
	// PolicyOverheadMs is the simulated cost of context extraction plus the
	// policy forward pass on the IoT device, charged to policy-driven
	// schemes.
	PolicyOverheadMs float64

	// hot, when set, overrides Local/LocalExecMs. Swapped atomically so a
	// refreshed model goes live between windows with no lock on the hot
	// detection path and no restart; in-flight windows finish on the
	// detector they started with.
	hot atomic.Pointer[hotLocal]
}

// hotLocal pairs a detector with its execution-time model so both swap in
// one atomic store — a refreshed detector must never be billed with the old
// detector's simulated cost.
type hotLocal struct {
	det    anomaly.Detector
	execMs func(frames int) float64
}

// SwapLocal atomically replaces the device's local detector and its
// simulated execution-time model. Windows already being judged finish on
// the old detector; every window dispatched after the swap sees the new
// one. A nil det clears the override, restoring the construction-time
// fields.
func (d *Device) SwapLocal(det anomaly.Detector, execMs func(frames int) float64) {
	if det == nil {
		d.hot.Store(nil)
		return
	}
	d.hot.Store(&hotLocal{det: det, execMs: execMs})
}

// localState returns the live local detector and execution-time model,
// preferring a SwapLocal override over the construction-time fields. A nil
// execution-time model charges zero.
func (d *Device) localState() (anomaly.Detector, func(frames int) float64) {
	det, execMs := d.Local, d.LocalExecMs
	if h := d.hot.Load(); h != nil {
		det, execMs = h.det, h.execMs
	}
	if execMs == nil {
		execMs = func(int) float64 { return 0 }
	}
	return det, execMs
}

// Outcome is one live detection with its delay decomposition.
type Outcome struct {
	Verdict anomaly.Verdict
	// Layer is the layer whose verdict was used.
	Layer hec.Layer
	// DelayMs is the end-to-end delay: ExecMs + NetMs (+ policy overhead for
	// policy-driven schemes).
	DelayMs float64
	// ExecMs sums the simulated execution time of every layer tried.
	ExecMs float64
	// NetMs sums the measured network time (incl. injected link delay) of
	// every offload performed.
	NetMs float64
}

// policyLayer runs the policy on the window's context and returns the
// highest-probability layer (worst=false) or the lowest (worst=true).
func (d *Device) policyLayer(frames [][]float64, worst bool) (hec.Layer, error) {
	z, err := d.Extractor.Context(frames)
	if err != nil {
		return 0, fmt.Errorf("cluster: extracting context: %w", err)
	}
	return d.pick(z, worst)
}

// pick is policyLayer from the context z.
func (d *Device) pick(z []float64, worst bool) (hec.Layer, error) {
	probs, err := d.Policy.Probs(z)
	if err != nil {
		return 0, fmt.Errorf("cluster: policy forward: %w", err)
	}
	if len(probs) == 0 {
		return 0, fmt.Errorf("cluster: policy returned no actions")
	}
	best := 0
	for a, p := range probs {
		if (!worst && p > probs[best]) || (worst && p < probs[best]) {
			best = a
		}
	}
	if best >= hec.NumLayers {
		return 0, fmt.Errorf("cluster: policy chose action %d beyond %d layers", best, hec.NumLayers)
	}
	return hec.Layer(best), nil
}

// Run dispatches one window under the given scheme. Cancelling ctx aborts
// the dispatch (including remote waits and injected link delays) with an
// error satisfying errors.Is(err, ctx.Err()).
func (d *Device) Run(ctx context.Context, s Scheme, frames [][]float64) (Outcome, error) {
	var one [1]Outcome
	b := dispatch{d: d, ctx: ctx, frames: frames}
	if err := b.run(s, one[:]); err != nil {
		return Outcome{}, err
	}
	return one[0], nil
}

// RunBatch dispatches a batch of windows under the given scheme, returning
// one outcome per window in input order: the verdicts and layer choices Run
// would make, with network time amortised over each dispatched batch. ctx
// follows Run's contract, covering every staged dispatch the batch
// performs.
func (d *Device) RunBatch(ctx context.Context, s Scheme, windows [][][]float64) ([]Outcome, error) {
	if len(windows) == 0 {
		return nil, nil
	}
	outs := make([]Outcome, len(windows))
	b := dispatch{d: d, ctx: ctx, windows: windows}
	if err := b.run(s, outs); err != nil {
		return nil, err
	}
	return outs, nil
}

// dispatch is one Run or RunBatch call. A set of windows is an index slice,
// nil meaning all, so a set that stays whole builds no index. The outcomes
// travel as a parameter, not a field: escape analysis is not field-
// sensitive, and next to the windows (which leak into interface calls) Run's
// stack array of one outcome would move to the heap.
type dispatch struct {
	d       *Device
	ctx     context.Context
	frames  [][]float64   // Run's window; windows is nil
	windows [][][]float64 // RunBatch's windows
	sub     [][][]float64 // scratch for an indexed sub-batch
}

// run applies scheme s's rule, then totals each window's delay.
func (b *dispatch) run(s Scheme, outs []Outcome) error {
	var err error
	switch s {
	case SchemeIoT:
		err = b.judge(hec.LayerIoT, nil, outs)
	case SchemeEdge:
		err = b.judge(hec.LayerEdge, nil, outs)
	case SchemeCloud:
		err = b.judge(hec.LayerCloud, nil, outs)
	case SchemeSuccessive:
		err = b.escalate(outs)
	case SchemeAdaptive, SchemePathological:
		err = b.route(s == SchemePathological, outs)
	default:
		err = fmt.Errorf("cluster: unknown scheme %d", int(s))
	}
	if err != nil {
		return err
	}
	var overhead float64
	if s.PolicyDriven() {
		overhead = b.d.PolicyOverheadMs
	}
	for i := range outs {
		o := &outs[i]
		o.DelayMs = o.ExecMs + o.NetMs + overhead
	}
	return nil
}

// escalate is the paper's Successive baseline: judge every window locally,
// then send the unconfident ones to the edge and the still-unconfident ones
// to the cloud. Each window accumulates the execution time of every layer
// it tried plus the network time of every offload it rode — in particular
// the cloud path still pays for the edge attempt. A ctx cancelled mid-
// ladder aborts before the next escalation.
func (b *dispatch) escalate(outs []Outcome) error {
	var idx, buf []int
	for l := hec.LayerIoT; l < hec.NumLayers; l++ {
		if err := b.judge(l, idx, outs); err != nil {
			return err
		}
		var n int
		if idx, n = subset(idx, len(outs), &buf, func(i int) bool { return !outs[i].Verdict.Confident }); n == 0 {
			break
		}
	}
	return nil
}

// route is the policy-driven rule: each window goes to the policy's most
// preferred layer (the paper's method) or, when worst, its least preferred
// (Pathological, which falls back to always-cloud without a policy). The
// windows are then judged in one group per layer.
//
// When the extractor is the live local detector — the multivariate IoT
// model, whose encoder state is the context — the windows are encoded once:
// the detector hands each window's state to the policy and goes on to judge
// the windows the policy keeps at the IoT layer. Any other device (a
// univariate one, one whose detector SwapLocal replaced, one whose
// extractor is wrapped) extracts every context first and judges after.
func (b *dispatch) route(worst bool, outs []Outcome) error {
	var one [1]hec.Layer
	picks := one[:]
	if len(outs) > 1 {
		picks = make([]hec.Layer, len(outs))
	}
	first := hec.LayerIoT // the first layer still to judge
	local, execMs := b.d.localState()
	hd, handoff := anomaly.Handoff(local, b.d.Extractor)
	switch {
	case b.d.Policy == nil || b.d.Extractor == nil:
		if !worst {
			return fmt.Errorf("cluster: policy-driven scheme needs a policy and an extractor")
		}
		for i := range picks {
			picks[i] = hec.LayerCloud
		}
	case handoff:
		if err := b.handoff(hd, execMs, worst, picks, outs); err != nil {
			return err
		}
		first = hec.LayerEdge
	default:
		for i := range picks {
			l, err := b.d.policyLayer(b.window(i), worst)
			if err != nil {
				return err
			}
			picks[i] = l
		}
	}
	var buf []int
	for l := first; l < hec.NumLayers; l++ {
		group, n := subset(nil, len(picks), &buf, func(i int) bool { return picks[i] == l })
		if n == 0 {
			continue
		}
		if err := b.judge(l, group, outs); err != nil {
			return err
		}
	}
	return nil
}

// handoff is route's one pass over a local detector that is also the
// extractor: hd encodes every window once, the policy picks each window's
// layer from its encoder state, and hd judges the windows picked for the
// IoT layer in the same call. The others are left for their layers.
func (b *dispatch) handoff(hd anomaly.HandoffDetector, execMs func(int) float64, worst bool, picks []hec.Layer, outs []Outcome) error {
	if err := b.ctx.Err(); err != nil {
		return fmt.Errorf("cluster: local detection abandoned: %w", err)
	}
	c := handoffPool.Get().(*handoffCall)
	defer c.release()
	c.d, c.worst = b.d, worst
	windows := b.windows
	if windows == nil {
		c.one[0] = b.frames
		windows = c.one[:]
	}
	c.layers = append(c.layers[:0], picks...)
	vs, err := hd.DetectKept(windows, c.keep)
	if err != nil {
		return fmt.Errorf("cluster: local detection: %w", err)
	}
	copy(picks, c.layers)
	for i, l := range picks {
		if l == hec.LayerIoT {
			fold(&outs[i], l, vs[i], execMs(len(windows[i])), 0)
		}
	}
	return nil
}

// handoffCall is the state of one handoff. The keep callback escapes into
// the interface call, and with it whatever it captures, so it is built once
// per pooled call over the call's own fields instead of per dispatch over
// the dispatch's (possibly stack-held) ones.
type handoffCall struct {
	d      *Device
	worst  bool
	layers []hec.Layer    // each window's pick
	one    [1][][]float64 // Run's window as a batch
	keep   anomaly.Keep   // picks window i's layer from z; keeps it at the IoT layer
}

var handoffPool = sync.Pool{New: func() any {
	c := new(handoffCall)
	c.keep = func(i int, z []float64) (bool, error) {
		l, err := c.d.pick(z, c.worst)
		c.layers[i] = l
		return l == hec.LayerIoT, err
	}
	return c
}}

// release drops the call's references and returns it to the pool.
func (c *handoffCall) release() {
	c.d, c.one[0] = nil, nil
	handoffPool.Put(c)
}

// subset returns the windows of idx (nil meaning all windows) that keep
// accepts, and how many there are. All of them come back as idx itself, so
// a set that stays whole never builds an index; a proper subset is written
// into *buf, which may alias idx.
func subset(idx []int, all int, buf *[]int, keep func(i int) bool) ([]int, int) {
	n, kept := count(idx, all), 0
	for k := 0; k < n; k++ {
		if keep(at(idx, k)) {
			kept++
		}
	}
	if kept == n || kept == 0 {
		return idx, kept
	}
	if *buf == nil {
		*buf = make([]int, 0, all)
	}
	out := (*buf)[:0]
	for k := 0; k < n; k++ {
		if i := at(idx, k); keep(i) {
			out = append(out, i)
		}
	}
	*buf = out
	return out, kept
}

// judge runs the windows at positions idx (every window when nil) at layer
// l and folds the results into their outcomes: the verdict and layer, plus
// the layer's simulated execution time and measured network time. A lone
// window goes through Detect or DetectContext; a larger set is one
// DetectBatch call locally and one batch request to a BatchRemote, whose
// network time is shared evenly. A remote without the batch RPC judges
// each window on its own. ctx is checked before local detection and handed
// to remotes, whose transport honours it during delays and response waits.
func (b *dispatch) judge(l hec.Layer, idx []int, outs []Outcome) error {
	n := count(idx, len(outs))
	if l == hec.LayerIoT {
		local, execMs := b.d.localState()
		if local == nil {
			return fmt.Errorf("cluster: device has no local detector")
		}
		if err := b.ctx.Err(); err != nil {
			return fmt.Errorf("cluster: local detection abandoned: %w", err)
		}
		var one [1]anomaly.Verdict
		vs, err := one[:], error(nil)
		if n == 1 {
			vs[0], err = local.Detect(b.window(at(idx, 0)))
		} else {
			vs, err = anomaly.DetectAll(local, b.batch(idx))
		}
		if err != nil {
			return fmt.Errorf("cluster: local detection: %w", err)
		}
		for k, v := range vs {
			i := at(idx, k)
			fold(&outs[i], l, v, execMs(len(b.window(i))), 0)
		}
		return nil
	}
	if l < 0 || l >= hec.NumLayers {
		return fmt.Errorf("cluster: layer %d out of range", int(l))
	}
	r := b.d.Remotes[l]
	if r == nil {
		return fmt.Errorf("cluster: no connection to layer %v", l)
	}
	if br, ok := r.(BatchRemote); ok && n > 1 {
		res, err := br.DetectBatchContext(b.ctx, b.batch(idx))
		if err != nil {
			return fmt.Errorf("cluster: batch detection at %v: %w", l, err)
		}
		share := res.NetMs / float64(n)
		for k, v := range res.Verdicts {
			fold(&outs[at(idx, k)], l, v, res.ExecMsEach[k], share)
		}
		return nil
	}
	for k := 0; k < n; k++ {
		i := at(idx, k)
		res, err := r.DetectContext(b.ctx, b.window(i))
		if err != nil {
			return fmt.Errorf("cluster: detection at %v: %w", l, err)
		}
		fold(&outs[i], l, res.Verdict, res.ExecMs, res.NetMs)
	}
	return nil
}

// fold records a window's verdict at layer l and charges it the layer's
// execution and network time.
func fold(o *Outcome, l hec.Layer, v anomaly.Verdict, execMs, netMs float64) {
	o.Verdict, o.Layer = v, l
	o.ExecMs += execMs
	o.NetMs += netMs
}

// count is the number of windows in idx, out of all.
func count(idx []int, all int) int {
	if idx == nil {
		return all
	}
	return len(idx)
}

// at is the position of idx's k-th window.
func at(idx []int, k int) int {
	if idx == nil {
		return k
	}
	return idx[k]
}

// window returns the frames of the window at position i.
func (b *dispatch) window(i int) [][]float64 {
	if b.windows == nil {
		return b.frames
	}
	return b.windows[i]
}

// batch returns the windows at positions idx as one slice.
func (b *dispatch) batch(idx []int) [][][]float64 {
	if idx == nil {
		return b.windows
	}
	if b.sub == nil {
		b.sub = make([][][]float64, 0, len(b.windows))
	}
	b.sub = b.sub[:0]
	for _, i := range idx {
		b.sub = append(b.sub, b.windows[i])
	}
	return b.sub
}
