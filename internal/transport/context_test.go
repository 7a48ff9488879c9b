package transport

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestDetectContextCancelDuringInjectedDelay cancels while the client is
// sleeping the emulated uplink: the call must return promptly with
// context.Canceled (not ErrRemote — the remote never failed) and the
// request must never reach the wire.
func TestDetectContextCancelDuringInjectedDelay(t *testing.T) {
	srv := startServer(t)
	cli := dialT(t, srv.Addr(), 2*time.Second)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := cli.DetectContext(ctx, [][]float64{{0.5}})
	elapsed := time.Since(start)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrRemote) {
		t.Fatalf("cancellation misclassified as remote failure: %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancelled call returned after %v", elapsed)
	}
}

// TestDetectContextCancelDuringResponseWait cancels while the server is
// busy with a slow detection: the call returns promptly, the late response
// is dropped, and the connection stays usable for the next request.
func TestDetectContextCancelDuringResponseWait(t *testing.T) {
	srv, err := ServeWith("127.0.0.1:0", thresholdDetector{SleepMs: 300}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := dialT(t, srv.Addr(), 0)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cli.DetectContext(ctx, [][]float64{{0.5}})
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("abandoned call returned after %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	// The abandoned response must be swallowed by the read loop, and the
	// connection must still serve fresh requests.
	res, err := cli.DetectContext(context.Background(), [][]float64{{2}})
	if err != nil {
		t.Fatalf("connection unusable after abandoned request: %v", err)
	}
	if !res.Verdict.Anomaly {
		t.Fatal("verdict lost after abandoned request")
	}
}

// TestDetectContextPreExpiredDeadline fails fast without touching the
// socket when the deadline already passed.
func TestDetectContextPreExpiredDeadline(t *testing.T) {
	srv := startServer(t)
	cli := dialT(t, srv.Addr(), 0)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := cli.DetectContext(ctx, [][]float64{{0.5}}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestServerShedsExpiredWork speaks the wire protocol directly: a request
// whose DeadlineUnixMicro is already in the past must come back with
// CodeExpired and no verdict — the server must not run the detector.
func TestServerShedsExpiredWork(t *testing.T) {
	srv, err := ServeWith("127.0.0.1:0", thresholdDetector{SleepMs: 200}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	req := &DetectRequest{
		ID:                7,
		Op:                OpDetect,
		Frames:            [][]float64{{2}},
		DeadlineUnixMicro: time.Now().Add(-time.Second).UnixMicro(),
	}
	writeRequest(t, conn, req)
	start := time.Now()
	resp := readResponse(t, conn)
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("shed response took %v — the 200 ms detector ran anyway", elapsed)
	}
	if resp.ID != 7 || resp.Code != CodeExpired || resp.Err == "" {
		t.Fatalf("response = %+v, want CodeExpired with ID 7", resp)
	}

	// A request with a future deadline still runs.
	req = &DetectRequest{
		ID:                8,
		Op:                OpDetect,
		Frames:            [][]float64{{2}},
		DeadlineUnixMicro: time.Now().Add(time.Minute).UnixMicro(),
	}
	writeRequest(t, conn, req)
	resp = readResponse(t, conn)
	if resp.Code != "" || !resp.Verdict.Anomaly {
		t.Fatalf("live-deadline response = %+v, want an anomalous verdict", resp)
	}
}

// TestRemoteErrorShedMapping pins the client-side mapping of CodeExpired:
// the error satisfies both context.DeadlineExceeded (uniform deadline
// handling) and ErrRemote (the server was reached).
func TestRemoteErrorShedMapping(t *testing.T) {
	err := remoteError("remote detection", &DetectResponse{Code: CodeExpired, Err: "shed"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	generic := remoteError("remote detection", &DetectResponse{Err: "boom"})
	if !errors.Is(generic, ErrRemote) || errors.Is(generic, context.DeadlineExceeded) {
		t.Fatalf("generic err = %v, want ErrRemote only", generic)
	}
}

// TestBatchContextCancelNoGoroutineLeak brackets a cancelled batch RPC
// with goroutine counts: after closing the client and server, everything
// the abandoned request spawned must be gone.
func TestBatchContextCancelNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, err := ServeWith("127.0.0.1:0", thresholdDetector{}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_, err = cli.DetectBatchContext(ctx, [][][]float64{{{0.5}}, {{2}}})
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline {
		time.Sleep(20 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > baseline {
		t.Fatalf("goroutines leaked: %d running, baseline %d", now, baseline)
	}
}

// TestPoolContextVariants smoke-tests the pooled Context methods end to
// end (success path), including deadline propagation on the wire.
func TestPoolContextVariants(t *testing.T) {
	srv := startServer(t)
	pool, err := DialPool(srv.Addr(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := pool.DetectContext(ctx, [][]float64{{2}})
	if err != nil || !res.Verdict.Anomaly {
		t.Fatalf("DetectContext = (%+v, %v)", res, err)
	}
	batch, err := pool.DetectBatchContext(ctx, [][][]float64{{{2}}, {{0.1}}})
	if err != nil || len(batch.Verdicts) != 2 || !batch.Verdicts[0].Anomaly || batch.Verdicts[1].Anomaly {
		t.Fatalf("DetectBatchContext = (%+v, %v)", batch, err)
	}
}
