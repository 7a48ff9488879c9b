package repro

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hec"
	"repro/internal/transport"
)

// fastUniSystem builds the fast univariate system once and shares it across
// the session tests (the System is read-only after build and sessions are
// independent views over it).
var (
	fastUniOnce sync.Once
	fastUniSys  *System
	fastUniErr  error
)

func fastUniSystem(t *testing.T) *System {
	t.Helper()
	fastUniOnce.Do(func() {
		fastUniSys, fastUniErr = Build(Univariate, WithFast())
	})
	if fastUniErr != nil {
		t.Fatalf("building shared fast system: %v", fastUniErr)
	}
	return fastUniSys
}

// TestParseSchemeBadInput checks the public parser accepts every CLI name
// and reports an unknown one as bad input.
func TestParseSchemeBadInput(t *testing.T) {
	for _, name := range []string{"iot", "edge", "cloud", "successive", "adaptive", "pathological"} {
		if _, err := ParseScheme(name); err != nil {
			t.Errorf("ParseScheme(%q): %v", name, err)
		}
	}
	if _, err := ParseScheme("bogus"); !errors.Is(err, ErrBadInput) {
		t.Errorf("ParseScheme(bogus) = %v, want ErrBadInput", err)
	}
}

// TestSessionFixedSchemesMatchPrecomputed checks a default (in-process)
// session reproduces the batch-report numbers exactly for the three fixed
// schemes: same verdicts, same calibrated end-to-end delays.
func TestSessionFixedSchemesMatchPrecomputed(t *testing.T) {
	sys := fastUniSystem(t)
	pc := sys.Precomputed()
	ctx := context.Background()
	for scheme, layer := range map[Scheme]hec.Layer{
		SchemeIoT:   hec.LayerIoT,
		SchemeEdge:  hec.LayerEdge,
		SchemeCloud: hec.LayerCloud,
	} {
		sess, err := sys.Open(scheme)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		for i := 0; i < 10 && i < len(sys.TestSamples); i++ {
			det, err := sess.Detect(ctx, sys.TestSamples[i].Frames)
			if err != nil {
				t.Fatalf("%v sample %d: %v", scheme, i, err)
			}
			want := pc.Outcomes[i][layer]
			if det.Anomaly != want.Verdict.Anomaly || det.Layer != layer {
				t.Fatalf("%v sample %d: got (%v, %v), want (%v, %v)",
					scheme, i, det.Anomaly, det.Layer, want.Verdict.Anomaly, layer)
			}
			if det.DelayMs != want.E2EMs {
				t.Fatalf("%v sample %d: delay %g, want calibrated %g", scheme, i, det.DelayMs, want.E2EMs)
			}
		}
		sess.Close()
	}
}

// TestSessionMatchesResultPanel checks a session of every scheme against
// the scheme's ResultPanel, window for window, on both fast systems (see
// sessionMatchesResultPanel). The three pairs with a test of their own
// below are left out here.
func TestSessionMatchesResultPanel(t *testing.T) {
	for _, sys := range []*System{fastUniSystem(t), fastMultiSystem(t)} {
		for _, scheme := range cluster.AllSchemes() {
			if scheme == SchemeAdaptive || sys.Kind == Univariate && scheme == SchemeSuccessive {
				continue
			}
			t.Run(sys.Kind.String()+"/"+scheme.String(), func(t *testing.T) {
				sessionMatchesResultPanel(t, sys, scheme)
			})
		}
	}
}

// TestSessionAdaptiveMatchesResultPanel checks the univariate adaptive
// session against its ResultPanel: same routing, verdicts and delays,
// policy overhead included.
func TestSessionAdaptiveMatchesResultPanel(t *testing.T) {
	sessionMatchesResultPanel(t, fastUniSystem(t), SchemeAdaptive)
}

// TestSessionSuccessiveMatchesResultPanel pins how the univariate live
// Successive scheme relates to its ResultPanel: verdicts and stopping layers
// agree, and live delay = panel delay + the round trips of the offloads
// tried below the final layer.
func TestSessionSuccessiveMatchesResultPanel(t *testing.T) {
	sessionMatchesResultPanel(t, fastUniSystem(t), SchemeSuccessive)
}

// TestSessionAdaptiveMultivariateMatchesResultPanel checks the multivariate
// adaptive session against its ResultPanel, on a policy that splits the
// test split across layers.
func TestSessionAdaptiveMultivariateMatchesResultPanel(t *testing.T) {
	sessionMatchesResultPanel(t, fastMultiSystem(t), SchemeAdaptive)
}

// sessionMatchesResultPanel checks a session of scheme on sys against the
// scheme's ResultPanel, window for window. Verdicts and layers agree
// everywhere, and so do delays, policy overhead included, except
// Successive's: a session pays the round trip of every offload it tried,
// the panel only the stopping layer's, so live = panel + the round trips of
// the offload layers below the final one. DetectBatch judges and routes as
// Detect does and shares each offload's round trip across the windows that
// rode it.
func sessionMatchesResultPanel(t *testing.T, sys *System, scheme Scheme) {
	t.Helper()
	ctx := context.Background()
	rtts := sys.Precomputed().RTTs
	windows := make([][][]float64, len(sys.TestSamples))
	for i, s := range sys.TestSamples {
		windows[i] = s.Frames
	}
	res, err := sys.ResultPanel(scheme)
	if err != nil {
		t.Fatal(err)
	}
	// offloads reports whether a window kept at final went
	// through layer l's offload, and rode[l] counts those that did.
	offloads := func(l, final Layer) bool {
		return l > LayerIoT && (l == final || scheme == SchemeSuccessive && l < final)
	}
	var rode [hec.NumLayers]int
	perLayer := map[Layer]int{}
	for _, final := range res.Layers {
		perLayer[final]++
		for l := LayerIoT; l < hec.NumLayers; l++ {
			if offloads(l, final) {
				rode[l]++
			}
		}
	}
	if sys.Kind == Multivariate && scheme == SchemeAdaptive && len(perLayer) < 2 {
		t.Fatalf("the policy sends every window to one layer (%v); the test lost its split", perLayer)
	}
	sess, err := sys.Open(scheme)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	batch, err := sess.DetectBatch(ctx, windows)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range windows {
		det, err := sess.Detect(ctx, w)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if det.Anomaly != res.Predictions[i] || det.Layer != res.Layers[i] {
			t.Fatalf("sample %d: session (%v, %v) vs panel (%v, %v)",
				i, det.Anomaly, det.Layer, res.Predictions[i], res.Layers[i])
		}
		var earlier, shared float64
		for l := LayerIoT; l < hec.NumLayers; l++ {
			if offloads(l, det.Layer) {
				shared += rtts[l]/float64(rode[l]) - rtts[l]
				if l < det.Layer {
					earlier += rtts[l]
				}
			}
		}
		if scheme != SchemeSuccessive && det.DelayMs != res.DelaysMs[i] {
			t.Fatalf("sample %d: delay %g, want %g", i, det.DelayMs, res.DelaysMs[i])
		}
		if want := res.DelaysMs[i] + earlier; math.Abs(det.DelayMs-want) > 1e-9 {
			t.Fatalf("sample %d at %v: live delay %g, want panel %g + %g of earlier offloads",
				i, det.Layer, det.DelayMs, res.DelaysMs[i], earlier)
		}
		b := batch[i]
		if b.Anomaly != det.Anomaly || b.Confident != det.Confident || b.Layer != det.Layer {
			t.Fatalf("sample %d: DetectBatch (%v, %v, %v) vs Detect (%v, %v, %v)",
				i, b.Anomaly, b.Confident, b.Layer, det.Anomaly, det.Confident, det.Layer)
		}
		if want := det.DelayMs + shared; math.Abs(b.DelayMs-want) > 1e-9 {
			t.Fatalf("sample %d at %v: DetectBatch delay %g, want %g", i, b.Layer, b.DelayMs, want)
		}
	}
}

// TestSessionDetectBatchMatchesDetect checks minibatch dispatch returns the
// same verdicts and routing as per-window calls, for every scheme.
func TestSessionDetectBatchMatchesDetect(t *testing.T) {
	sys := fastUniSystem(t)
	ctx := context.Background()
	windows := make([][][]float64, 0, 12)
	for i := 0; i < 12 && i < len(sys.TestSamples); i++ {
		windows = append(windows, sys.TestSamples[i].Frames)
	}
	for _, scheme := range []Scheme{SchemeIoT, SchemeEdge, SchemeCloud, SchemeSuccessive, SchemeAdaptive, SchemePathological} {
		sess, err := sys.Open(scheme)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		batch, err := sess.DetectBatch(ctx, windows)
		if err != nil {
			t.Fatalf("%v batch: %v", scheme, err)
		}
		if len(batch) != len(windows) {
			t.Fatalf("%v: %d detections for %d windows", scheme, len(batch), len(windows))
		}
		for i, w := range windows {
			single, err := sess.Detect(ctx, w)
			if err != nil {
				t.Fatalf("%v sample %d: %v", scheme, i, err)
			}
			if batch[i].Anomaly != single.Anomaly || batch[i].Layer != single.Layer {
				t.Fatalf("%v sample %d: batch (%v, %v) vs single (%v, %v)",
					scheme, i, batch[i].Anomaly, batch[i].Layer, single.Anomaly, single.Layer)
			}
		}
		sess.Close()
	}
}

// TestSessionBadInput exercises the ErrBadInput corners of the session
// surface.
func TestSessionBadInput(t *testing.T) {
	sys := fastUniSystem(t)
	ctx := context.Background()

	if _, err := sys.Open(Scheme(99)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("unknown scheme: err = %v, want ErrBadInput", err)
	}
	if _, err := sys.Open(SchemeIoT, WithPoolSize(0)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("pool size 0: err = %v, want ErrBadInput", err)
	}
	// The IoT tier is the device itself: configuring a remote for it must
	// fail loudly instead of being silently ignored.
	if _, err := sys.Open(SchemeIoT, WithRemoteAddr(LayerIoT, "127.0.0.1:1", 0)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("IoT remote: err = %v, want ErrBadInput", err)
	}
	if _, err := sys.Open(SchemeIoT, WithRemote(Layer(7), localRemote{})); !errors.Is(err, ErrBadInput) {
		t.Fatalf("out-of-range remote layer: err = %v, want ErrBadInput", err)
	}
	if _, err := sys.Open(SchemeCloud, WithRemote(LayerCloud, nil)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil remote: err = %v, want ErrBadInput", err)
	}

	sess, err := sys.Open(SchemeIoT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Detect(ctx, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty window: err = %v, want ErrBadInput", err)
	}
	if _, err := sess.DetectBatch(ctx, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty batch: err = %v, want ErrBadInput", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := sess.Detect(ctx, sys.TestSamples[0].Frames); !errors.Is(err, ErrBadInput) {
		t.Fatalf("detect after close: err = %v, want ErrBadInput", err)
	}
}

// TestSessionRemoteOptionsLastWins pins the functional-option convention
// for per-layer remotes: the later option overrides the earlier one, in
// both orders. An unreachable address proves which option actually took
// effect — it only fails Open when it is the survivor.
func TestSessionRemoteOptionsLastWins(t *testing.T) {
	sys := fastUniSystem(t)
	inProcess := localRemote{dep: sys.Deployment, layer: hec.LayerCloud}

	// Addr first, remote last: the remote wins, the bogus addr is never
	// dialed, and detection works.
	sess, err := sys.Open(SchemeCloud,
		WithRemoteAddr(LayerCloud, "127.0.0.1:1", 0),
		WithRemote(LayerCloud, inProcess))
	if err != nil {
		t.Fatalf("remote-last open: %v", err)
	}
	if _, err := sess.Detect(context.Background(), sys.TestSamples[0].Frames); err != nil {
		t.Fatalf("remote-last detect: %v", err)
	}
	sess.Close()

	// Remote first, addr last: the addr wins, so Open must try (and fail)
	// to dial it.
	if _, err := sys.Open(SchemeCloud,
		WithRemote(LayerCloud, inProcess),
		WithRemoteAddr(LayerCloud, "127.0.0.1:1", 0)); err == nil {
		t.Fatal("addr-last open dialed nothing: the later option was ignored")
	}
}

// TestSessionLocalCancellation covers the in-process path: a pre-cancelled
// context refuses detection with the full taxonomy.
func TestSessionLocalCancellation(t *testing.T) {
	sys := fastUniSystem(t)
	sess, err := sys.Open(SchemeSuccessive)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sess.Detect(ctx, sys.TestSamples[0].Frames)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	var e *Error
	if !errors.As(err, &e) {
		t.Fatalf("err %T is not a *repro.Error", err)
	}
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (small slack for runtime helpers) or the deadline passes.
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

// TestSessionTransportCancellation is the acceptance test for the
// context-aware surface: a Session.DetectBatch against a transport-backed
// tier with a cancelled or expired context must return a *repro.Error
// satisfying errors.Is against both the taxonomy and the context sentinel,
// well inside the injected-delay budget, and leak no goroutines.
func TestSessionTransportCancellation(t *testing.T) {
	sys := fastUniSystem(t)

	// The injected one-way delay is deliberately huge (2 s per direction):
	// any non-cancelled round trip would take ≥ 4 s, so a prompt return
	// proves cancellation cut the delay emulation short.
	const oneWay = 2 * time.Second
	const budget = oneWay / 2

	execMs, err := sys.Deployment.Topology.ExecTimeFunc(hec.LayerCloud, sys.Deployment.Detectors[hec.LayerCloud], sys.Deployment.Recurrent)
	if err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	srv, err := transport.Serve("127.0.0.1:0", sys.Deployment.Detectors[hec.LayerCloud], execMs)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := sys.Open(SchemeCloud, WithRemoteAddr(LayerCloud, srv.Addr(), oneWay))
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}

	windows := [][][]float64{sys.TestSamples[0].Frames, sys.TestSamples[1].Frames}

	t.Run("cancel mid-batch", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := sess.DetectBatch(ctx, windows)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
		}
		var e *Error
		if !errors.As(err, &e) {
			t.Fatalf("err %T is not a *repro.Error", err)
		}
		if elapsed > budget {
			t.Fatalf("cancelled batch returned after %v (budget %v)", elapsed, budget)
		}
	})

	t.Run("deadline mid-batch", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := sess.DetectBatch(ctx, windows)
		elapsed := time.Since(start)
		if !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want ErrDeadline wrapping context.DeadlineExceeded", err)
		}
		if elapsed > budget {
			t.Fatalf("deadlined batch returned after %v (budget %v)", elapsed, budget)
		}
	})

	t.Run("expired deadline", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		if _, err := sess.Detect(ctx, sys.TestSamples[0].Frames); !errors.Is(err, ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline", err)
		}
	})

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, baseline)
}

// TestSessionTransportBackedMatchesLocal runs a live (loopback, no
// injected delay) cloud tier and checks the wire path returns the same
// verdicts as the in-process one — the session abstraction must not change
// detection semantics, only where it runs.
func TestSessionTransportBackedMatchesLocal(t *testing.T) {
	sys := fastUniSystem(t)
	baseline := runtime.NumGoroutine()
	srv, err := transport.Serve("127.0.0.1:0", sys.Deployment.Detectors[hec.LayerCloud], nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sys.Open(SchemeCloud, WithRemoteAddr(LayerCloud, srv.Addr(), 0))
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	ctx := context.Background()
	pc := sys.Precomputed()
	dets, err := sess.DetectBatch(ctx, [][][]float64{sys.TestSamples[0].Frames, sys.TestSamples[1].Frames})
	if err != nil {
		t.Fatal(err)
	}
	for i, det := range dets {
		if want := pc.Outcomes[i][hec.LayerCloud].Verdict.Anomaly; det.Anomaly != want {
			t.Fatalf("window %d over the wire: anomaly %v, want %v", i, det.Anomaly, want)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, baseline)
}
