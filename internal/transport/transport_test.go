package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/nn"
)

// thresholdDetector flags windows whose first value exceeds 1, and sleeps
// SleepMs per request so tests can exercise pipelining under slow handlers.
type thresholdDetector struct {
	SleepMs float64
}

func (thresholdDetector) Name() string { return "threshold" }

func (d thresholdDetector) Detect(frames [][]float64) (anomaly.Verdict, error) {
	if d.SleepMs > 0 {
		time.Sleep(time.Duration(d.SleepMs * float64(time.Millisecond)))
	}
	if len(frames) == 0 || len(frames[0]) == 0 {
		return anomaly.Verdict{}, fmt.Errorf("empty window")
	}
	v := anomaly.Verdict{MinLogPD: -frames[0][0]}
	if frames[0][0] > 1 {
		v.Anomaly = true
		v.Confident = true
	}
	return v, nil
}

func (thresholdDetector) NumParams() int           { return 1 }
func (thresholdDetector) FlopsPerWindow(int) int64 { return 1 }

func startServer(t *testing.T) *Server {
	t.Helper()
	return startServerWith(t, ServerOptions{ExecMs: func(frames int) float64 {
		return float64(frames) * 0.5
	}})
}

func startServerWith(t *testing.T, opt ServerOptions) *Server {
	t.Helper()
	srv, err := ServeWith("127.0.0.1:0", thresholdDetector{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	})
	return srv
}

// writeFrame sends payload as one frame, playing a peer by hand.
func writeFrame(w io.Writer, payload []byte) error {
	return sendFrame(w, append(beginFrame(nil), payload...))
}

// writeRequest frames and sends one request, playing a client by hand.
func writeRequest(t *testing.T, conn net.Conn, req *DetectRequest) {
	t.Helper()
	payload, err := BinaryCodec.AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, payload); err != nil {
		t.Fatal(err)
	}
}

// readResponse reads and decodes one response frame.
func readResponse(t *testing.T, conn net.Conn) *DetectResponse {
	t.Helper()
	payload, err := readFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := new(DetectResponse)
	if err := BinaryCodec.DecodeResponse(payload, resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// answerHello plays a server's side of the dial: it reads the client's
// hello and answers it with the given protocol version.
func answerHello(conn net.Conn, version uint8) error {
	payload, err := readFrame(conn, nil)
	if err != nil {
		return err
	}
	var req DetectRequest
	if err := BinaryCodec.DecodeRequest(payload, &req); err != nil {
		return err
	}
	out, err := BinaryCodec.AppendResponse(nil, &DetectResponse{ID: req.ID, layout: layoutHello, Version: version})
	if err != nil {
		return err
	}
	return writeFrame(conn, out)
}

func dialT(t *testing.T, addr string, oneWay time.Duration) *Client {
	t.Helper()
	cli, err := Dial(addr, oneWay)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

func TestServeRequiresDetector(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", nil, nil); err == nil {
		t.Fatal("nil detector must be rejected")
	}
}

func TestDetectRoundTrip(t *testing.T) {
	srv := startServer(t)
	cli := dialT(t, srv.Addr(), 0)

	res, err := cli.DetectContext(context.Background(), [][]float64{{2}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.Anomaly || !res.Verdict.Confident {
		t.Fatalf("verdict = %+v, want confident anomaly", res.Verdict)
	}
	if res.ExecMs != 1.0 { // 2 frames × 0.5 ms
		t.Fatalf("exec = %g, want 1.0", res.ExecMs)
	}
	if res.NetMs < 0 {
		t.Fatalf("net = %g, want ≥ 0", res.NetMs)
	}
	if want := res.NetMs + res.ExecMs; res.E2EMs != want {
		t.Fatalf("e2e = %g, want NetMs+ExecMs = %g", res.E2EMs, want)
	}

	res, err = cli.DetectContext(context.Background(), [][]float64{{0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict.Anomaly {
		t.Fatal("normal window flagged")
	}
}

func TestKeepAliveConnectionReuse(t *testing.T) {
	srv := startServer(t)
	cli := dialT(t, srv.Addr(), 0)
	// Many requests over one connection.
	for i := 0; i < 50; i++ {
		if _, err := cli.DetectContext(context.Background(), [][]float64{{float64(i)}}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	srv := startServer(t)
	cli := dialT(t, srv.Addr(), 0)
	if _, err := cli.DetectContext(context.Background(), nil); err == nil {
		t.Fatal("server-side detection error must propagate")
	}
	// The connection must survive an application-level error.
	if _, err := cli.DetectContext(context.Background(), [][]float64{{0}}); err != nil {
		t.Fatalf("connection unusable after remote error: %v", err)
	}
	// And an in-flight error must not poison concurrent successes.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(bad bool) {
			defer wg.Done()
			_, err := cli.DetectContext(context.Background(), map[bool][][]float64{true: nil, false: {{0.5}}}[bad])
			if bad && err == nil {
				t.Error("bad request must error")
			}
			if !bad && err != nil {
				t.Errorf("good request failed alongside a bad one: %v", err)
			}
		}(i%2 == 0)
	}
	wg.Wait()
}

func TestInjectedLatency(t *testing.T) {
	srv := startServer(t)
	const oneWay = 30 * time.Millisecond
	cli := dialT(t, srv.Addr(), oneWay)
	res, err := cli.DetectContext(context.Background(), [][]float64{{0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.NetMs < 60 { // two injected one-way delays
		t.Fatalf("net = %g ms, want ≥ 60 (RTT injection)", res.NetMs)
	}
	if _, err := Dial(srv.Addr(), -time.Second); err == nil {
		t.Fatal("negative delay must be rejected")
	}
}

// TestPipelinedSharedClientNotSerialized is the regression test for the old
// lock-across-sleep bug: 8 concurrent callers on ONE client, each paying an
// 80 ms injected RTT, must overlap their delays instead of queueing. The
// serialized implementation needed ≥ 8 × 80 ms = 640 ms.
func TestPipelinedSharedClientNotSerialized(t *testing.T) {
	srv := startServer(t)
	const oneWay = 40 * time.Millisecond
	cli := dialT(t, srv.Addr(), oneWay)

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cli.DetectContext(context.Background(), [][]float64{{0.5}}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 2*oneWay {
		t.Fatalf("elapsed %v < one RTT %v: delay injection lost", elapsed, 2*oneWay)
	}
	if elapsed > 6*oneWay { // serialized behaviour would need 16×oneWay
		t.Fatalf("8 concurrent detections took %v; injected delays are serializing", elapsed)
	}
}

// TestResponsesRoutedByID pipelines a slow request behind a fast one and
// checks each caller gets its own verdict even though the responses return
// out of order.
func TestResponsesRoutedByID(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", thresholdDetector{SleepMs: 60}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := dialT(t, srv.Addr(), 0)
	var wg sync.WaitGroup
	results := make([]float64, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cli.DetectContext(context.Background(), [][]float64{{float64(i) * 0.1}})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res.Verdict.MinLogPD
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if want := -float64(i) * 0.1; got != want {
			t.Fatalf("caller %d got MinLogPD %g, want %g: responses misrouted", i, got, want)
		}
	}
}

// TestMidStreamDisconnect covers a peer dying with requests in flight: the
// pending calls must fail promptly and later calls must report the
// connection as down.
func TestMidStreamDisconnect(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan struct{})
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		close(accepted)
		// Complete the dial, swallow one length prefix mid-message, then
		// drop the connection.
		if err := answerHello(conn, protocolVersion); err != nil {
			conn.Close()
			return
		}
		buf := make([]byte, 4)
		_, _ = io.ReadFull(conn, buf)
		conn.Close()
	}()

	cli, err := Dial(lis.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	<-accepted
	if _, err := cli.DetectContext(context.Background(), [][]float64{{1}}); err == nil {
		t.Fatal("detection over a dropped connection must fail")
	}
	_, err = cli.DetectContext(context.Background(), [][]float64{{1}})
	if err == nil {
		t.Fatal("client must stay failed after the connection dropped")
	}
	if !strings.Contains(err.Error(), "connection down") {
		t.Fatalf("err = %v, want a connection-down error", err)
	}
}

// TestServerCloseFailsPending closes the server while slow detections are in
// flight and checks every pending caller is woken with an error.
func TestServerCloseFailsPending(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", thresholdDetector{SleepMs: 200}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			// The server waits for in-flight handlers on Close, so these
			// either complete or fail — they must not hang.
			_, _ = cli.DetectContext(context.Background(), [][]float64{{0.5}})
		}()
	}
	close(start)
	time.Sleep(20 * time.Millisecond) // let the requests get in flight
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pending detections hung after server close")
	}
}

func TestModelFetchRPC(t *testing.T) {
	snap := &ModelSnapshot{
		Kind:     "autoencoder",
		Tier:     "Edge",
		InputDim: 4,
		Weights: &nn.Snapshot{
			Names:  []string{"w"},
			Shapes: [][2]int{{2, 2}},
			Values: [][]float64{{1, 2, 3, 4}},
		},
		Scorer: &anomaly.ScorerState{Mean: []float64{0}, Cov: []float64{1}, Threshold: -3},
		Conf:   anomaly.DefaultConfidence(),
	}
	srv := startServerWith(t, ServerOptions{Model: snap})
	cli := dialT(t, srv.Addr(), 0)

	got, _, err := RefreshModel(context.Background(), cli, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != snap.Kind || got.Tier != snap.Tier || got.InputDim != snap.InputDim {
		t.Fatalf("fetched metadata %+v, want %+v", got, snap)
	}
	if got.Weights.Values[0][3] != 4 || got.Scorer.Threshold != -3 {
		t.Fatalf("fetched payload corrupted: %+v", got)
	}

	// A node without a model must answer with a clean error, and the
	// connection must survive it.
	bare := startServer(t)
	cli2 := dialT(t, bare.Addr(), 0)
	if _, _, err := RefreshModel(context.Background(), cli2, nil); err == nil {
		t.Fatal("fetching from a model-less node must fail")
	}
	if _, err := cli2.DetectContext(context.Background(), [][]float64{{0}}); err != nil {
		t.Fatalf("connection unusable after failed model fetch: %v", err)
	}
}

func TestPoolRoundRobin(t *testing.T) {
	srv := startServer(t)
	if _, err := DialPool(srv.Addr(), 0, 0); err == nil {
		t.Fatal("pool size 0 must be rejected")
	}
	pool, err := DialPool(srv.Addr(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Size() != 3 {
		t.Fatalf("pool size = %d, want 3", pool.Size())
	}
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := pool.DetectContext(context.Background(), [][]float64{{float64(i%2) * 2}})
			if err != nil {
				t.Error(err)
				return
			}
			if want := i%2 == 1; res.Verdict.Anomaly != want {
				t.Errorf("request %d: verdict %v, want %v", i, res.Verdict.Anomaly, want)
			}
		}(i)
	}
	wg.Wait()
}

// TestManyClientsOneServerStress hammers one server from a mix of shared
// pipelined clients, pools, and per-goroutine clients; run under -race this
// is the transport's concurrency smoke test.
func TestManyClientsOneServerStress(t *testing.T) {
	srv := startServerWith(t, ServerOptions{
		ExecMs: func(frames int) float64 { return float64(frames) },
		Model: &ModelSnapshot{Kind: "autoencoder", Tier: "IoT", InputDim: 1,
			Weights: &nn.Snapshot{}, Scorer: &anomaly.ScorerState{Mean: []float64{0}, Cov: []float64{1}}},
	})
	shared := dialT(t, srv.Addr(), 0)
	pool, err := DialPool(srv.Addr(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const goroutines, reqs = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var own *Client
			if g%4 == 3 {
				var err error
				if own, err = Dial(srv.Addr(), 0); err != nil {
					errs <- err
					return
				}
				defer own.Close()
			}
			for i := 0; i < reqs; i++ {
				var err error
				switch {
				case g%4 == 3:
					_, err = own.DetectContext(context.Background(), [][]float64{{float64(g%2) * 2}})
				case g%4 == 2:
					_, err = pool.DetectContext(context.Background(), [][]float64{{float64(g%2) * 2}})
				case i%10 == 9:
					_, _, err = RefreshModel(context.Background(), shared, nil)
				default:
					var res DetectResult
					res, err = shared.DetectContext(context.Background(), [][]float64{{float64(g%2) * 2}})
					if err == nil && res.Verdict.Anomaly != (g%2 == 1) {
						err = fmt.Errorf("goroutine %d: wrong verdict %v", g, res.Verdict.Anomaly)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d request %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", thresholdDetector{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 0); err == nil {
		t.Fatal("dialing a closed port must fail")
	}
}

func TestMessageSizeLimit(t *testing.T) {
	srv := startServer(t)
	cli := dialT(t, srv.Addr(), 0)
	// A >16 MB window must be rejected client-side before hitting the wire.
	huge := [][]float64{make([]float64, (maxMessageBytes/8)+1024)}
	err := func() error { _, err := cli.DetectContext(context.Background(), huge); return err }()
	if err == nil {
		t.Fatal("oversized message must be rejected")
	}
	// A local refusal is the request's failure, not the link's: it must not
	// classify as ErrConn, or pools would evict the healthy connection and
	// replica sets would expel the healthy replica over a bad input.
	if errors.Is(err, ErrConn) {
		t.Fatalf("local oversize rejection classified as a connection failure: %v", err)
	}
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	// The rejection must not poison the connection: nothing was written.
	if _, err := cli.DetectContext(context.Background(), [][]float64{{0}}); err != nil {
		t.Fatalf("connection unusable after oversized-message rejection: %v", err)
	}
}
