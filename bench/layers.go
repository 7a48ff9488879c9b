package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/anomaly"
	"repro/internal/autoencoder"
	"repro/internal/cluster"
	"repro/internal/hec"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/seq2seq"
	"repro/internal/transport"
)

// Where the program takes a concrete type there is no seam for a wrapper,
// so after the traced round the same windows are replayed one level down,
// one call at a time on an otherwise idle process, and the medians are
// subtracted. The functions below are those replays.

// timeCalls calls each of fs in turn, in groups of reps, until the budget
// is spent (at least five groups each) and returns the median time of one
// call of each in µs and the number of groups. Functions timed together
// share whatever disturbs the box, so their medians can be subtracted. Cheap
// calls need reps > 1 to rise above the clock's own cost.
func timeCalls(budget time.Duration, reps int, fs ...func(i int)) (us []float64, n int) {
	samples := make([][]float64, len(fs))
	i := 0
	for stop := time.Now().Add(budget); n < 5 || time.Now().Before(stop); n++ {
		for k, f := range fs {
			t := time.Now()
			for r := 0; r < reps; r++ {
				f(i + r)
			}
			samples[k] = append(samples[k], float64(time.Since(t))/1e3/float64(reps))
		}
		i += reps
	}
	for _, s := range samples {
		us = append(us, median(s))
	}
	return us, n
}

// allocsPer is the mean number of heap allocations of one f call.
func allocsPer(calls int, f func(i int)) float64 {
	var before, after runtime.MemStats
	f(0)
	runtime.ReadMemStats(&before)
	for i := 1; i <= calls; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// homeTier is the layer whose detector judges most of the workload's
// windows, by the oracle.
func (st *stack) homeTier() hec.Layer {
	var n [hec.NumLayers]int
	for _, v := range st.oracle {
		n[v.layer]++
	}
	best := hec.LayerIoT
	for l := range n {
		if n[l] > n[best] {
			best = hec.Layer(l)
		}
	}
	return best
}

// callWindows returns the windows of the i-th call of a replay: the
// workload's batch size, cycling through the given sample indices. It
// reuses buf's storage.
func (st *stack) callWindows(buf [][][]float64, samples []int, i int) [][][]float64 {
	buf = buf[:0]
	for k := 0; k < st.w.batch; k++ {
		buf = append(buf, st.windows[samples[(i*st.w.batch+k)%len(samples)]])
	}
	return buf
}

// replayTransport dials the cloud node directly, below routing, and sends
// it the windows the workload sends there. First one request at a time,
// which gives the network share of an unloaded round trip as the program
// reports it (NetMs); then from one connection per device at once, the load
// the devices put on the node, which gives the round trip that a routing
// span is compared with. Both medians are in µs; a workload that never
// reaches the cloud reads 0.
func (st *stack) replayTransport(budget time.Duration) (roundtripUs, wireIdleUs float64, n int, err error) {
	var samples []int
	for i, v := range st.oracle {
		if v.layer == hec.LayerCloud {
			samples = append(samples, i)
		}
	}
	if len(samples) == 0 {
		return 0, 0, 0, nil
	}
	// replay times calls over a connection of its own and returns each
	// call's round trip and NetMs.
	replay := func(budget time.Duration, first int) (roundtrips, wire []float64, err error) {
		pool, err := transport.DialPool(st.nodes[hec.LayerCloud].Addr(), 0, 1)
		if err != nil {
			return nil, nil, err
		}
		defer pool.Close()
		var buf [][][]float64
		for i, stop := first, time.Now().Add(budget); len(wire) < 5 || time.Now().Before(stop); i += devices {
			ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
			buf = st.callWindows(buf, samples, i)
			var netMs float64
			t := time.Now()
			if st.w.batch == 1 {
				var res transport.DetectResult
				res, err = pool.DetectContext(ctx, buf[0])
				netMs = res.NetMs
			} else {
				var res transport.BatchResult
				res, err = pool.DetectBatchContext(ctx, buf)
				netMs = res.NetMs
			}
			roundtrips = append(roundtrips, float64(time.Since(t))/1e3)
			cancel()
			if err != nil {
				return nil, nil, fmt.Errorf("transport replay: %w", err)
			}
			wire = append(wire, netMs*1e3)
		}
		return roundtrips, wire, nil
	}
	_, wire, err := replay(budget/2, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	st.direct += uint64(len(wire))
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		all  []float64
		errs []error
	)
	for c := 0; c < devices; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rts, _, err := replay(budget/2, c)
			mu.Lock()
			defer mu.Unlock()
			all = append(all, rts...)
			errs = append(errs, err)
		}()
	}
	wg.Wait()
	st.direct += uint64(len(all))
	return median(all), median(wire), len(all), errors.Join(errs...)
}

// codecTimes are the standalone costs of the binary codec on the
// workload's real request and response.
type codecTimes struct {
	encodeReqUs, decodeReqUs, encodeRespUs, decodeRespUs float64
	allocsPerRoundtrip                                   float64
	requestBytes, responseBytes                          int
	n                                                    int
}

func (st *stack) replayCodec(budget time.Duration) (codecTimes, error) {
	wins := st.callWindows(nil, st.order, 0)
	req := &transport.DetectRequest{ID: 1, Op: transport.OpDetect, Frames: wins[0], DeadlineUnixMicro: time.Now().UnixMicro()}
	resp := &transport.DetectResponse{ID: 1, ExecMs: 1.5, ProcMs: 0.25,
		Verdict: anomaly.Verdict{Anomaly: true, MinLogPD: -12.5, AnomalousFraction: 0.03}}
	if st.w.batch > 1 {
		req.Op, req.Frames, req.Windows = transport.OpDetectBatch, nil, wins
		resp.Verdicts = make([]anomaly.Verdict, len(wins))
		resp.ExecMsEach = make([]float64, len(wins))
		for i := range resp.Verdicts {
			resp.Verdicts[i], resp.ExecMsEach[i] = resp.Verdict, resp.ExecMs
		}
	}
	codec := transport.BinaryCodec
	reqBytes, err := codec.AppendRequest(nil, req)
	if err != nil {
		return codecTimes{}, err
	}
	respBytes, err := codec.AppendResponse(nil, resp)
	if err != nil {
		return codecTimes{}, err
	}
	var (
		buf     []byte
		gotReq  transport.DetectRequest
		gotResp transport.DetectResponse
	)
	ops := []func(int){
		func(int) { buf, err = codec.AppendRequest(buf[:0], req) },
		func(int) { err = codec.DecodeRequest(reqBytes, &gotReq) },
		func(int) { buf, err = codec.AppendResponse(buf[:0], resp) },
		func(int) { err = codec.DecodeResponse(respBytes, &gotResp) },
	}
	// Each frame travels behind a 4-byte length prefix.
	ct := codecTimes{requestBytes: len(reqBytes) + 4, responseBytes: len(respBytes) + 4}
	var us []float64
	us, ct.n = timeCalls(budget, 16, ops...)
	if err != nil {
		return codecTimes{}, err
	}
	ct.encodeReqUs, ct.decodeReqUs, ct.encodeRespUs, ct.decodeRespUs = us[0], us[1], us[2], us[3]
	ct.allocsPerRoundtrip = allocsPer(200, func(i int) {
		for _, op := range ops {
			op(i)
		}
	})
	return ct, err
}

// replaySched is the uncontended cost of passing the admission gate the
// tier nodes run: Acquire and Done on a scheduler of their configuration.
func (st *stack) replaySched(budget time.Duration) (float64, int, error) {
	s, err := sched.New(sched.Config{MaxConcurrent: runtime.GOMAXPROCS(0), MaxQueue: 64})
	if err != nil {
		return 0, 0, err
	}
	class := sched.ClassInteractive
	if st.w.batch > 1 {
		class = sched.ClassBulk
	}
	us, n := timeCalls(budget, 16, func(i int) {
		g, aerr := s.Acquire(sched.Key{Conn: 1, Req: uint64(i)}, time.Time{}, class)
		if aerr != nil {
			err = aerr
			return
		}
		g.Done()
	})
	return us[0], n, err
}

// replayPolicy times the policy network alone on the windows' contexts.
func (st *stack) replayPolicy(budget time.Duration) (float64, int, error) {
	var err error
	zs := make([][]float64, len(st.windows))
	for i, win := range st.windows {
		if zs[i], err = st.sys.Extractor.Context(win); err != nil {
			return 0, 0, err
		}
	}
	us, n := timeCalls(budget, 16, func(i int) {
		if _, perr := st.sys.Policy.Probs(zs[i%len(zs)]); perr != nil {
			err = perr
		}
	})
	return us[0], n, err
}

// detectorTimes split the home tier's detector, called directly on the
// workload's windows, into the model's forward pass and the rest (error
// vectors, Gaussian log-density, the verdict rule). All per window.
type detectorTimes struct {
	detectUs, forwardUs         float64
	detectAllocs, forwardAllocs float64
	flops                       int64 // computed by the detector's own FlopsPerWindow, not counted
	n                           int
}

func (st *stack) replayDetector(budget time.Duration) (detectorTimes, error) {
	det := st.sys.Deployment.Detectors[st.homeTier()]
	b := st.w.batch
	var err error
	note := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	var wins [][][]float64
	detect := func(i int) {
		wins = st.callWindows(wins, st.order, i)
		if b == 1 {
			_, e := det.Detect(wins[0])
			note(e)
			return
		}
		_, e := anomaly.DetectAll(det, wins)
		note(e)
	}
	var forward func(i int)
	switch m := det.(type) {
	case *autoencoder.Model:
		var ws nn.BatchScratch
		var xb mat.Matrix
		forward = func(i int) {
			wins = st.callWindows(wins, st.order, i)
			x := xb.Reshape(b, len(wins[0]))
			for k, win := range wins {
				row := x.Row(k)
				for t, f := range win {
					row[t] = f[0]
				}
			}
			if b == 1 {
				_, e := m.Net.Forward(x.Row(0), false)
				note(e)
				return
			}
			_, e := m.Net.InferBatch(&ws, x)
			note(e)
		}
	case *seq2seq.Model:
		forward = func(i int) {
			wins = st.callWindows(wins, st.order, i)
			if b == 1 {
				_, e := m.Net.Reconstruct(wins[0])
				note(e)
				return
			}
			_, e := m.Net.ReconstructBatch(wins)
			note(e)
		}
	default:
		return detectorTimes{}, fmt.Errorf("detector replay: unknown model type %T", det)
	}
	dt := detectorTimes{flops: det.FlopsPerWindow(len(st.windows[0]))}
	per := float64(b)
	var us []float64
	us, dt.n = timeCalls(budget, 1, detect, forward)
	dt.detectUs, dt.forwardUs = us[0]/per, us[1]/per
	dt.detectAllocs = allocsPer(50, detect) / per
	dt.forwardAllocs = allocsPer(50, forward) / per
	return dt, err
}

// Stubs that answer at once, for timing the dispatch code alone.
type (
	stubDetector struct{ anomaly.Detector }
	stubRemote   struct{}
	stubPolicy   struct{}
	stubContext  struct{}
)

var confident = anomaly.Verdict{Confident: true}

func (stubDetector) Detect([][]float64) (anomaly.Verdict, error) { return confident, nil }
func (stubDetector) DetectBatch(w [][][]float64) ([]anomaly.Verdict, error) {
	return make([]anomaly.Verdict, len(w)), nil
}
func (stubRemote) DetectContext(context.Context, [][]float64) (transport.DetectResult, error) {
	return transport.DetectResult{Verdict: confident}, nil
}
func (stubRemote) DetectBatchContext(_ context.Context, w [][][]float64) (transport.BatchResult, error) {
	return transport.BatchResult{Verdicts: make([]anomaly.Verdict, len(w)), ExecMsEach: make([]float64, len(w))}, nil
}
func (stubPolicy) Probs([]float64) ([]float64, error)      { return []float64{1, 0, 0}, nil }
func (stubContext) Context([][]float64) ([]float64, error) { return nil, nil }
func (stubContext) Dim() int                               { return 0 }

// replayCluster times cluster.Device's dispatch of the workload's scheme
// with every layer below it stubbed out: the cost of the scheme logic and
// its bookkeeping alone, per call.
func (st *stack) replayCluster(budget time.Duration) (float64, int, error) {
	dev := &cluster.Device{Local: stubDetector{}, Policy: stubPolicy{}, Extractor: stubContext{}}
	for _, l := range remoteTiers {
		dev.Remotes[l] = stubRemote{}
	}
	scheme := cluster.Scheme(st.w.scheme)
	ctx := context.Background()
	var wins [][][]float64
	var err error
	us, n := timeCalls(budget, 16, func(i int) {
		wins = st.callWindows(wins, st.order, i)
		var e error
		if st.w.batch == 1 {
			_, e = dev.Run(ctx, scheme, wins[0])
		} else {
			_, e = dev.RunBatch(ctx, scheme, wins)
		}
		if e != nil {
			err = e
		}
	})
	return us[0], n, err
}
