package repro

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/anomaly"
	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/features"
	"repro/internal/hec"
	"repro/internal/routing"
	"repro/internal/transport"
)

// Layer re-exports the HEC hierarchy position for the session API.
type Layer = hec.Layer

// The three HEC layers, bottom to top.
const (
	LayerIoT   = hec.LayerIoT
	LayerEdge  = hec.LayerEdge
	LayerCloud = hec.LayerCloud
)

// Scheme selects how a Session routes windows across the hierarchy — the
// paper's five evaluation schemes plus the deliberately bad Pathological
// router used to validate metrics pipelines. It re-exports the cluster
// runtime's scheme, which Session dispatches through.
type Scheme = cluster.Scheme

// The six live schemes: always the IoT, edge or cloud tier; Successive,
// escalating IoT → edge → cloud until a confident verdict; Adaptive, the
// trained contextual-bandit policy (the paper's method); and Pathological,
// the policy's least-preferred layer, an intentionally bad router.
const (
	SchemeIoT          = cluster.SchemeIoT
	SchemeEdge         = cluster.SchemeEdge
	SchemeCloud        = cluster.SchemeCloud
	SchemeSuccessive   = cluster.SchemeSuccessive
	SchemeAdaptive     = cluster.SchemeAdaptive
	SchemePathological = cluster.SchemePathological
)

// ParseScheme maps a CLI-style name (iot|edge|cloud|successive|adaptive|
// pathological) to a Scheme.
func ParseScheme(name string) (Scheme, error) {
	s, err := cluster.ParseScheme(name)
	if err != nil {
		return 0, badInput("parse scheme", "%v", err)
	}
	return s, nil
}

// Remote is a connection to a remote tier's detection service, as accepted
// by WithRemote. *transport.Client and *transport.Pool satisfy it; remotes
// that additionally implement the batch RPC (both do) get one request per
// DetectBatch call instead of one per window.
type Remote = cluster.Remote

// RoutingPolicy picks which replica of a multi-replica tier serves each
// request (see WithRouting). The built-in policies are RouteRoundRobin,
// RouteLeastInFlight, RoutePowerOfTwo and — for metrics validation only —
// RouteAlwaysBusiest.
type RoutingPolicy = routing.Policy

// RouteRoundRobin cycles through a tier's replicas in order — the default.
func RouteRoundRobin() RoutingPolicy { return routing.RoundRobin() }

// RouteLeastInFlight dispatches to the replica with the fewest requests in
// flight, steering around slow or degraded instances.
func RouteLeastInFlight() RoutingPolicy { return routing.LeastInFlight() }

// RoutePowerOfTwo samples two replicas and dispatches to the less loaded —
// near-least-in-flight tail latency without scanning every replica.
func RoutePowerOfTwo(seed int64) RoutingPolicy { return routing.PowerOfTwo(seed) }

// RouteAlwaysBusiest dispatches to the MOST loaded replica — a
// deliberately pathological policy for validating that delay metrics can
// tell a good routing policy from a bad one.
func RouteAlwaysBusiest() RoutingPolicy { return routing.AlwaysBusiest() }

// sessionConfig accumulates SessionOptions. err records the first invalid
// option so Open can refuse it instead of silently dropping it.
type sessionConfig struct {
	remotes      [hec.NumLayers]cluster.Remote
	addrs        [hec.NumLayers]string
	replicaAddrs [hec.NumLayers][]string
	delays       [hec.NumLayers]time.Duration
	// delayFromAddr marks delays that came in through WithRemoteAddr, so
	// a later WithRemoteAddrs overriding that option drops its delay too —
	// per its contract, replica-set delays come only from WithLinkDelay.
	delayFromAddr [hec.NumLayers]bool
	poolSize      int
	routing       RoutingPolicy
	retries       int
	noRetries     bool
	maxInFlight   int
	healthEvery   time.Duration
	autoscale     [hec.NumLayers]*AutoscaleConfig
	err           error
}

// SessionOption configures System.Open.
type SessionOption func(*sessionConfig)

// remoteLayer validates a layer that is being given a remote: only the
// offload tiers (edge, cloud) accept one — the IoT tier is the device
// itself and always runs the local detector.
func (c *sessionConfig) remoteLayer(layer Layer) bool {
	if layer <= hec.LayerIoT || layer >= hec.NumLayers {
		if c.err == nil {
			c.err = badInput("open session", "layer %v cannot take a remote (only %v and %v can)",
				layer, hec.LayerEdge, hec.LayerCloud)
		}
		return false
	}
	return true
}

// WithRemote routes windows for the given layer over an existing
// connection (e.g. a *transport.Pool the caller manages). The caller keeps
// ownership: Session.Close will not close it. Only LayerEdge and
// LayerCloud accept a remote; any other layer — or a nil remote — makes
// Open fail with ErrBadInput. When several options target the same layer,
// the last one wins.
func WithRemote(layer Layer, r Remote) SessionOption {
	return func(c *sessionConfig) {
		if r == nil {
			if c.err == nil {
				c.err = badInput("open session", "nil remote for layer %v", layer)
			}
			return
		}
		if c.remoteLayer(layer) {
			c.remotes[layer] = r
			// Later option overrides an earlier WithRemoteAddr/WithRemoteAddrs.
			c.addrs[layer] = ""
			c.replicaAddrs[layer] = nil
		}
	}
}

// WithRemoteAddr makes the session dial a transport pool to the given
// layer's detection service (a hecnode, or any transport.Server). oneWay
// is the injected per-direction link delay (0 disables emulation). The
// session owns the dialed pool and closes it on Close. Only LayerEdge and
// LayerCloud accept a remote; any other layer makes Open fail with
// ErrBadInput. When several options target the same layer, the last one
// wins.
func WithRemoteAddr(layer Layer, addr string, oneWay time.Duration) SessionOption {
	return func(c *sessionConfig) {
		if c.remoteLayer(layer) {
			c.addrs[layer] = addr
			c.delays[layer] = oneWay
			c.delayFromAddr[layer] = true
			// Later option overrides an earlier WithRemote/WithRemoteAddrs.
			c.remotes[layer] = nil
			c.replicaAddrs[layer] = nil
		}
	}
}

// WithRemoteAddrs gives a layer a replica set: the session dials every
// address, health-checks the membership, routes each request per the
// WithRouting policy (round-robin by default), and fails broken attempts
// over to healthy replicas within a bounded retry budget — so losing a
// replica mid-stream costs retries, not errors. The session owns the
// replica set and closes it on Close. The injected link delay for the
// layer is taken from WithLinkDelay (default 0). Only LayerEdge and
// LayerCloud accept replicas; when several options target the same layer,
// the last one wins.
func WithRemoteAddrs(layer Layer, addrs ...string) SessionOption {
	return func(c *sessionConfig) {
		if len(addrs) == 0 {
			if c.err == nil {
				c.err = badInput("open session", "no replica addresses for layer %v", layer)
			}
			return
		}
		if c.remoteLayer(layer) {
			c.replicaAddrs[layer] = append([]string(nil), addrs...)
			c.remotes[layer] = nil
			c.addrs[layer] = ""
			if c.delayFromAddr[layer] {
				// The overridden WithRemoteAddr's delay goes with it.
				c.delays[layer] = 0
				c.delayFromAddr[layer] = false
			}
		}
	}
}

// WithRouting sets the routing policy replica-set layers dispatch with
// (default RouteRoundRobin). It applies to every layer configured through
// WithRemoteAddrs.
func WithRouting(policy RoutingPolicy) SessionOption {
	return func(c *sessionConfig) {
		if policy == nil {
			if c.err == nil {
				c.err = badInput("open session", "nil routing policy")
			}
			return
		}
		c.routing = policy
	}
}

// WithLinkDelay sets the emulated one-way link delay for a layer's
// replica-set connections (see WithRemoteAddrs); WithRemoteAddr carries
// its own delay parameter and is unaffected unless it runs first.
func WithLinkDelay(layer Layer, oneWay time.Duration) SessionOption {
	return func(c *sessionConfig) {
		if oneWay < 0 {
			if c.err == nil {
				c.err = badInput("open session", "negative link delay %v for layer %v", oneWay, layer)
			}
			return
		}
		if c.remoteLayer(layer) {
			c.delays[layer] = oneWay
			c.delayFromAddr[layer] = false
		}
	}
}

// WithRetryBudget bounds how many additional replicas a failed request may
// try before the failure surfaces as ErrRemote (default 2). n = 0 disables
// failover entirely.
func WithRetryBudget(n int) SessionOption {
	return func(c *sessionConfig) {
		if n < 0 {
			if c.err == nil {
				c.err = badInput("open session", "negative retry budget %d", n)
			}
			return
		}
		c.retries = n
		c.noRetries = n == 0
	}
}

// WithMaxInFlight caps the requests a replica-set layer carries
// concurrently; admission beyond the cap fails fast as ErrRemote (load is
// shed, not queued). 0 (the default) means unbounded.
func WithMaxInFlight(n int) SessionOption {
	return func(c *sessionConfig) {
		if n < 0 {
			if c.err == nil {
				c.err = badInput("open session", "negative in-flight cap %d", n)
			}
			return
		}
		c.maxInFlight = n
	}
}

// WithHealthInterval enables periodic background health probes on
// replica-set layers (0, the default, leaves health to request outcomes).
func WithHealthInterval(d time.Duration) SessionOption {
	return func(c *sessionConfig) {
		if d < 0 {
			if c.err == nil {
				c.err = badInput("open session", "negative health interval %v", d)
			}
			return
		}
		c.healthEvery = d
	}
}

// WithPoolSize sets how many pipelined connections WithRemoteAddr and
// WithRemoteAddrs dial per remote address (default 2).
func WithPoolSize(n int) SessionOption {
	return func(c *sessionConfig) { c.poolSize = n }
}

// Spawner provisions one more replica for an autoscaled tier: it returns
// the new replica's address and a stop function invoked after the tier
// has drained it. autoscale.ServeSpawner (in-process transport.Servers) is
// the built-in; SpawnerFunc adapts anything else, such as a launcher of
// hecnode processes.
type Spawner = autoscale.Spawner

// SpawnerFunc adapts a function to the Spawner interface.
type SpawnerFunc = autoscale.SpawnFunc

// AutoscaleStatus re-exports a controller's observable state: current and
// high-water replica counts plus actuated scale-up/scale-down totals.
type AutoscaleStatus = autoscale.Status

// AutoscaleConfig parameterises WithAutoscale — the target-utilization
// policy plus the spawner that provisions replicas.
type AutoscaleConfig struct {
	// Spawner provisions additional replicas. Required.
	Spawner Spawner
	// TargetInFlight is the per-replica in-flight load the controller
	// holds the tier at. Required, > 0.
	TargetInFlight float64
	// Tolerance is the hysteresis half-width as a fraction of the target
	// (default 0.2): load inside the band never moves the tier.
	Tolerance float64
	// Min and Max bound the replica count (Min defaults to the seed
	// membership size; Max ≤ 0 means unbounded).
	Min, Max int
	// UpCooldown and DownCooldown gate consecutive scale decisions in the
	// same direction; a scale-up also re-arms the down clock.
	UpCooldown, DownCooldown time.Duration
	// Interval is the control-loop cadence (default 250 ms).
	Interval time.Duration
}

// WithAutoscale puts the layer's replica set under an autoscaling control
// loop: a Collect → Decide → Actuate cycle that grows the tier through
// cfg.Spawner when per-replica in-flight load runs above target and
// drain-aware-shrinks it back (in-flight work finishes before a replica's
// pool closes) when load falls, within [Min, Max] and the cooldowns. The
// layer must also be configured with WithRemoteAddrs — the seed
// membership is the floor the controller never drains below. The session
// owns the controller: Close stops the loop and drains every spawned
// replica.
func WithAutoscale(layer Layer, cfg AutoscaleConfig) SessionOption {
	return func(c *sessionConfig) {
		if cfg.Spawner == nil {
			if c.err == nil {
				c.err = badInput("open session", "autoscale for layer %v needs a spawner", layer)
			}
			return
		}
		if cfg.TargetInFlight <= 0 {
			if c.err == nil {
				c.err = badInput("open session", "autoscale target in-flight %v must be > 0", cfg.TargetInFlight)
			}
			return
		}
		if cfg.Max > 0 && cfg.Min > cfg.Max {
			if c.err == nil {
				c.err = badInput("open session", "autoscale bounds min %d > max %d", cfg.Min, cfg.Max)
			}
			return
		}
		if cfg.UpCooldown < 0 || cfg.DownCooldown < 0 || cfg.Interval < 0 {
			if c.err == nil {
				c.err = badInput("open session", "negative autoscale duration")
			}
			return
		}
		if c.remoteLayer(layer) {
			cp := cfg
			c.autoscale[layer] = &cp
		}
	}
}

// Detection is one judged window as seen by a Session caller.
type Detection struct {
	// Anomaly reports whether the window was flagged anomalous.
	Anomaly bool
	// Confident reports the paper's two-part confidence rule (the
	// Successive scheme's stopping condition).
	Confident bool
	// Layer is the tier whose verdict was used.
	Layer Layer
	// DelayMs is the end-to-end detection delay: execution + network
	// (+ policy overhead for policy-driven schemes). Simulated and
	// measured milliseconds are never mixed within one term.
	DelayMs float64
	// ExecMs is the (simulated) execution time summed over every tier
	// tried.
	ExecMs float64
	// NetMs is the network time summed over every offload — measured wall
	// clock for wire-backed tiers, the calibrated round-trip model for
	// in-process tiers.
	NetMs float64
}

// Session is a streaming detection endpoint over a built System: windows
// go in one at a time (Detect) or in minibatches (DetectBatch), and the
// configured scheme routes each to a tier — in-process models by default,
// wire-backed tiers for layers given a remote. A Session is safe for
// concurrent use by multiple goroutines; Close releases the connections
// the session itself dialed.
type Session struct {
	scheme Scheme
	dev    *cluster.Device
	dep    *hec.Deployment

	// refreshMu serialises RefreshModel calls so concurrent refreshes
	// cannot interleave fetch-and-swap; it is never held on the detection
	// path.
	refreshMu sync.Mutex

	mu       sync.Mutex
	owned    []io.Closer
	ctls     []*autoscale.Controller
	baseSnap *transport.ModelSnapshot // last snapshot applied by RefreshModel
	closed   bool
}

// Open starts a streaming detection session over the system using the
// given routing scheme. With no options every tier runs in-process against
// the deployed detectors, with network time taken from the calibrated
// topology model — so per-window delays are consistent with the batch
// reports. WithRemote/WithRemoteAddr swap individual tiers for live
// detection services reached over TCP, and WithRemoteAddrs gives a tier a
// whole replica set — health-checked membership, WithRouting-pluggable
// dispatch, failover within WithRetryBudget, and WithMaxInFlight admission
// shedding.
func (s *System) Open(scheme Scheme, opts ...SessionOption) (*Session, error) {
	if scheme < SchemeIoT || scheme > SchemePathological {
		return nil, badInput("open session", "unknown scheme %d", int(scheme))
	}
	cfg := sessionConfig{poolSize: 2}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	if cfg.poolSize < 1 {
		return nil, badInput("open session", "pool size %d < 1", cfg.poolSize)
	}
	for l := hec.LayerEdge; l < hec.NumLayers; l++ {
		if cfg.autoscale[l] != nil && len(cfg.replicaAddrs[l]) == 0 {
			return nil, badInput("open session",
				"autoscale for layer %v needs a WithRemoteAddrs replica set to scale", l)
		}
	}

	dev, err := s.device(s.Deployment, s.Extractor)
	if err != nil {
		return nil, wrapErr("open session", err)
	}
	sess := &Session{scheme: scheme, dep: s.Deployment, dev: dev}
	for l := hec.LayerEdge; l < hec.NumLayers; l++ {
		switch {
		case cfg.remotes[l] != nil:
			sess.dev.Remotes[l] = cfg.remotes[l]
		case len(cfg.replicaAddrs[l]) > 0:
			set, err := routing.New(routing.Config{
				Addrs:          cfg.replicaAddrs[l],
				Dial:           transport.DialOptions{OneWay: cfg.delays[l]},
				PoolSize:       cfg.poolSize,
				Policy:         cfg.routing,
				Retries:        cfg.retries,
				NoRetries:      cfg.noRetries,
				MaxInFlight:    cfg.maxInFlight,
				HealthInterval: cfg.healthEvery,
			})
			if err != nil {
				sess.Close()
				return nil, wrapErr("open session", err)
			}
			sess.dev.Remotes[l] = set
			if ac := cfg.autoscale[l]; ac != nil {
				min := ac.Min
				if min < 1 {
					min = len(cfg.replicaAddrs[l])
				}
				ctl, err := autoscale.New(autoscale.Config{
					Name:      l.String(),
					Collector: autoscale.CollectSet(set),
					Policy: &autoscale.TargetUtilization{
						TargetInFlight: ac.TargetInFlight,
						Tolerance:      ac.Tolerance,
						Min:            min,
						Max:            ac.Max,
						UpCooldown:     ac.UpCooldown,
						DownCooldown:   ac.DownCooldown,
					},
					Actuator: autoscale.NewSetActuator(set, ac.Spawner),
					Interval: ac.Interval,
				})
				if err != nil {
					set.Close()
					sess.Close()
					return nil, wrapErr("open session", err)
				}
				// The controller closes before the set: Close must still be
				// able to drain spawned replicas through the live membership.
				sess.owned = append(sess.owned, ctl)
				sess.ctls = append(sess.ctls, ctl)
				ctl.Start()
			}
			sess.owned = append(sess.owned, set)
		case cfg.addrs[l] != "":
			pool, err := transport.DialPool(cfg.addrs[l], cfg.delays[l], cfg.poolSize)
			if err != nil {
				sess.Close()
				return nil, wrapErr("open session", err)
			}
			sess.dev.Remotes[l] = pool
			sess.owned = append(sess.owned, pool)
		}
	}
	return sess, nil
}

// device is the in-process device Open starts from and Table II runs on:
// dep's IoT detector on the device, each offload tier served in-process by
// localRemote over dep, and the system's policy routing on ext's contexts.
func (s *System) device(dep *hec.Deployment, ext features.Extractor) (*cluster.Device, error) {
	local := dep.Detectors[hec.LayerIoT]
	execMs, err := dep.Topology.ExecTimeFunc(hec.LayerIoT, local, dep.Recurrent)
	if err != nil {
		return nil, err
	}
	dev := &cluster.Device{Local: local, LocalExecMs: execMs, Extractor: ext, PolicyOverheadMs: dep.PolicyOverheadMs}
	if s.Policy != nil { // a nil *policy.Network must not become a non-nil PolicySource
		dev.Policy = s.Policy
	}
	for l := hec.LayerEdge; l < hec.NumLayers; l++ {
		dev.Remotes[l] = localRemote{dep: dep, layer: l}
	}
	return dev, nil
}

// Scheme returns the routing scheme the session was opened with.
func (s *Session) Scheme() Scheme { return s.scheme }

// TierStatus re-exports the cluster runtime's per-tier routing report: the
// replica-choice policy, admission sheds, and per-replica request/failure/
// busy/expel/readmit counters plus each replica's scraped server-side
// scheduler backlog (queue depth, peer cancel count).
type TierStatus = cluster.TierStatus

// TierStatus snapshots the routing state of every tier this session
// reaches through a replica set (or any remote exposing routing
// introspection): which replicas are in the rotation, how requests,
// failures and busy refusals distributed across them, each replica's
// scheduler backlog as of its last health probe, and the expel/readmit
// churn the health checker observed. Counters are absolute for the
// session's lifetime. Tiers served in-process or over a plain pool report
// nothing.
func (s *Session) TierStatus() []TierStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return cluster.TierStatuses(s.dev)
}

// AutoscaleStatus snapshots every WithAutoscale controller the session
// runs: one entry per elastic tier, in layer order. Sessions opened
// without WithAutoscale return nil.
func (s *Session) AutoscaleStatus() []AutoscaleStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.ctls) == 0 {
		return nil
	}
	out := make([]AutoscaleStatus, len(s.ctls))
	for i, c := range s.ctls {
		out[i] = c.Status()
	}
	return out
}

// Detect judges one window. Cancelling ctx (or passing one whose deadline
// has passed) aborts the dispatch — including remote response waits and
// injected link delays — and returns a *Error satisfying both the repro
// taxonomy (ErrCanceled / ErrDeadline) and ctx.Err(); a ctx deadline also
// rides the wire to remote tiers so overloaded servers shed expired work.
func (s *Session) Detect(ctx context.Context, frames [][]float64) (Detection, error) {
	if err := s.usable("detect"); err != nil {
		return Detection{}, err
	}
	if len(frames) == 0 {
		return Detection{}, badInput("detect", "empty window")
	}
	out, err := s.dev.Run(ctx, s.scheme, frames)
	if err != nil {
		return Detection{}, wrapErr("detect", err)
	}
	return fromOutcome(out), nil
}

// DetectBatch judges a minibatch of windows in input order, dispatching
// each tier's share as one vectorised batch (one wire round trip per tier
// for remote-backed layers). Verdicts and routing are identical to
// len(windows) Detect calls; only the delay accounting differs, each
// batch's network time being shared across the windows that rode it. The
// ctx contract matches Detect and covers the whole batch.
func (s *Session) DetectBatch(ctx context.Context, windows [][][]float64) ([]Detection, error) {
	if err := s.usable("detect batch"); err != nil {
		return nil, err
	}
	if len(windows) == 0 {
		return nil, badInput("detect batch", "empty batch")
	}
	outs, err := s.dev.RunBatch(ctx, s.scheme, windows)
	if err != nil {
		return nil, wrapErr("detect batch", err)
	}
	dets := make([]Detection, len(outs))
	for i, out := range outs {
		dets[i] = fromOutcome(out)
	}
	return dets, nil
}

// RefreshModel asks the given tier for its current detector snapshot and
// hot-swaps the session's local (IoT-tier) detector when the tier holds a
// different version. The fetch is content-addressed and incremental: the
// session remembers the last snapshot it applied, so an unchanged tier
// costs one version probe and a changed tier ships only the tensors whose
// hashes differ; the first refresh ships the whole snapshot. The tier may
// be a single connection, a pool, or a health-checked replica set whose
// chunks fail over mid-transfer: any transport.ModelPeer, driven by
// transport.RefreshModel. The swap is atomic and restart-free — windows
// streaming through Detect/DetectBatch keep flowing, in-flight ones
// finishing on the old detector — and the refreshed detector's simulated
// execution time is recalibrated from the topology model. Returns whether
// a swap happened; tiers served in-process cannot provide snapshots and
// return ErrBadInput. Safe for concurrent use; concurrent calls serialise.
func (s *Session) RefreshModel(ctx context.Context, from Layer) (bool, error) {
	if err := s.usable("refresh model"); err != nil {
		return false, err
	}
	if from <= hec.LayerIoT || from >= hec.NumLayers {
		return false, badInput("refresh model", "layer %v cannot serve models (only %v and %v can)",
			from, hec.LayerEdge, hec.LayerCloud)
	}
	peer, ok := s.dev.Remotes[from].(transport.ModelPeer)
	if !ok {
		return false, badInput("refresh model", "layer %v is served in-process and has no model endpoint", from)
	}
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	s.mu.Lock()
	base := s.baseSnap
	s.mu.Unlock()
	snap, upToDate, err := transport.RefreshModel(ctx, peer, base)
	if err != nil {
		return false, wrapErr("refresh model", err)
	}
	if upToDate {
		return false, nil
	}
	det, recurrent, err := cluster.RestoreDetector(snap)
	if err != nil {
		return false, wrapErr("refresh model", err)
	}
	execMs, err := s.dep.Topology.ExecTimeFunc(hec.LayerIoT, det, recurrent)
	if err != nil {
		return false, wrapErr("refresh model", err)
	}
	s.dev.SwapLocal(det, execMs)
	s.mu.Lock()
	s.baseSnap = snap
	s.mu.Unlock()
	return true, nil
}

// Close releases every connection the session dialed itself (remotes
// injected via WithRemote stay open — the caller owns them). Close is
// idempotent; detection calls after Close return ErrBadInput.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, c := range s.owned {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.owned = nil
	s.ctls = nil
	if first != nil {
		return wrapErr("close session", first)
	}
	return nil
}

// usable reports an ErrBadInput-kind error when the session is closed.
func (s *Session) usable(op string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return badInput(op, "session is closed")
	}
	return nil
}

// fromOutcome converts the cluster runtime's outcome to the public shape.
func fromOutcome(out cluster.Outcome) Detection {
	return Detection{
		Anomaly:   out.Verdict.Anomaly,
		Confident: out.Verdict.Confident,
		Layer:     out.Layer,
		DelayMs:   out.DelayMs,
		ExecMs:    out.ExecMs,
		NetMs:     out.NetMs,
	}
}

// localRemote serves a tier in-process for sessions opened without a wire
// remote: the deployed detector judges the window, execution time comes
// from the calibrated topology model, and network time is the simulated
// round trip, as in Precompute. Delays agree with Table II except
// Successive's: a session pays the round trip of every offload it tried,
// Table II only the stopping layer's (see ARCHITECTURE.md §5). Batch
// dispatches charge the round trip once per batch, mirroring the wire batch
// RPC.
type localRemote struct {
	dep   *hec.Deployment
	layer hec.Layer
}

func (r localRemote) DetectContext(ctx context.Context, frames [][]float64) (transport.DetectResult, error) {
	if err := ctx.Err(); err != nil {
		return transport.DetectResult{}, err
	}
	v, err := r.dep.Detectors[r.layer].Detect(frames)
	if err != nil {
		return transport.DetectResult{}, fmt.Errorf("repro: in-process %v detection: %w", r.layer, err)
	}
	exec, err := r.dep.ExecMs(r.layer, len(frames))
	if err != nil {
		return transport.DetectResult{}, err
	}
	rtt, err := r.dep.RTTMs(r.layer)
	if err != nil {
		return transport.DetectResult{}, err
	}
	return transport.DetectResult{Verdict: v, ExecMs: exec, NetMs: rtt, E2EMs: rtt + exec}, nil
}

func (r localRemote) DetectBatchContext(ctx context.Context, windows [][][]float64) (transport.BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return transport.BatchResult{}, err
	}
	vs, err := anomaly.DetectAll(r.dep.Detectors[r.layer], windows)
	if err != nil {
		return transport.BatchResult{}, fmt.Errorf("repro: in-process %v batch detection: %w", r.layer, err)
	}
	execEach := make([]float64, len(windows))
	for i, w := range windows {
		exec, err := r.dep.ExecMs(r.layer, len(w))
		if err != nil {
			return transport.BatchResult{}, err
		}
		execEach[i] = exec
	}
	rtt, err := r.dep.RTTMs(r.layer)
	if err != nil {
		return transport.BatchResult{}, err
	}
	return transport.BatchResult{Verdicts: vs, ExecMsEach: execEach, NetMs: rtt}, nil
}

// A replica set must keep satisfying the cluster runtime's batch-capable
// remote shape, or multi-replica tiers would silently lose the one-RPC-
// per-batch path.
var _ cluster.BatchRemote = (*routing.ReplicaSet)(nil)
