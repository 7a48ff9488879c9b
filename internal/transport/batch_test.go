package transport

import (
	"context"
	"strings"
	"testing"
	"time"
)

func batchWindows(vals ...float64) [][][]float64 {
	out := make([][][]float64, len(vals))
	for i, v := range vals {
		out[i] = [][]float64{{v}, {0}}
	}
	return out
}

// TestDetectBatchRoundTrip checks the batch RPC end to end: one request,
// per-window verdicts and exec times in request order.
func TestDetectBatchRoundTrip(t *testing.T) {
	srv := startServer(t)
	cli := dialT(t, srv.Addr(), 0)
	res, err := cli.DetectBatchContext(context.Background(), batchWindows(0.5, 2, 0.1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Verdicts) != 4 || len(res.ExecMsEach) != 4 {
		t.Fatalf("batch sizes: %d verdicts, %d exec times", len(res.Verdicts), len(res.ExecMsEach))
	}
	wantAnomaly := []bool{false, true, false, true}
	for i, v := range res.Verdicts {
		if v.Anomaly != wantAnomaly[i] {
			t.Fatalf("window %d: anomaly=%v, want %v", i, v.Anomaly, wantAnomaly[i])
		}
		if res.ExecMsEach[i] != 1 { // 2 frames × 0.5ms from the test compute model
			t.Fatalf("window %d: exec %gms, want 1", i, res.ExecMsEach[i])
		}
	}
	if res.NetMs < 0 {
		t.Fatalf("negative net time %g", res.NetMs)
	}
}

// TestDetectBatchMatchesPerWindowDetect pins the wire batch path to N
// per-window requests: same verdicts, same simulated execution times.
func TestDetectBatchMatchesPerWindowDetect(t *testing.T) {
	srv := startServer(t)
	cli := dialT(t, srv.Addr(), 0)
	windows := batchWindows(0.2, 1.5, 0.9, 4, 0.01)
	batch, err := cli.DetectBatchContext(context.Background(), windows)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range windows {
		single, err := cli.DetectContext(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		if batch.Verdicts[i] != single.Verdict {
			t.Fatalf("window %d: batch verdict %+v vs single %+v", i, batch.Verdicts[i], single.Verdict)
		}
		if batch.ExecMsEach[i] != single.ExecMs {
			t.Fatalf("window %d: batch exec %g vs single %g", i, batch.ExecMsEach[i], single.ExecMs)
		}
	}
}

// TestDetectBatchAmortisesInjectedDelay is the point of the batch RPC: with
// an injected one-way delay, N windows in one batch pay the link once,
// where N per-window requests sent one after another pay it N times.
func TestDetectBatchAmortisesInjectedDelay(t *testing.T) {
	srv := startServer(t)
	const oneWay = 30 * time.Millisecond
	cli, err := Dial(srv.Addr(), oneWay)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	windows := batchWindows(1, 2, 3, 4, 5, 6, 7, 8)
	start := time.Now()
	if _, err := cli.DetectBatchContext(context.Background(), windows); err != nil {
		t.Fatal(err)
	}
	batchWall := time.Since(start)

	start = time.Now()
	for _, w := range windows {
		if _, err := cli.DetectContext(context.Background(), w); err != nil {
			t.Fatal(err)
		}
	}
	serialWall := time.Since(start)

	// 8 serial round trips pay ≥ 8×2×30ms of link; the batch pays 2×30ms.
	if batchWall >= serialWall/3 {
		t.Fatalf("batching did not amortise the link: batch %v vs serial %v", batchWall, serialWall)
	}
}

// TestDetectBatchErrorPaths covers the server- and client-side failure
// surfaces of the batch op.
func TestDetectBatchErrorPaths(t *testing.T) {
	srv := startServer(t)
	cli := dialT(t, srv.Addr(), 0)
	if _, err := cli.DetectBatchContext(context.Background(), nil); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty batch error = %v", err)
	}
	// One bad window fails the whole batch server-side; the connection
	// stays usable.
	bad := batchWindows(0.5)
	bad = append(bad, [][]float64{})
	if _, err := cli.DetectBatchContext(context.Background(), bad); err == nil {
		t.Fatal("bad window must fail the batch")
	}
	if _, err := cli.DetectBatchContext(context.Background(), batchWindows(0.5)); err != nil {
		t.Fatalf("connection unusable after batch error: %v", err)
	}
}

// TestDetectBatchWithoutComputeModel checks the wall-clock fallback: a
// server with no ExecMs model splits its measured handling time across the
// batch.
func TestDetectBatchWithoutComputeModel(t *testing.T) {
	srv := startServerWith(t, ServerOptions{})
	cli := dialT(t, srv.Addr(), 0)
	res, err := cli.DetectBatchContext(context.Background(), batchWindows(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ExecMsEach) != 2 || res.ExecMsEach[0] != res.ExecMsEach[1] {
		t.Fatalf("fallback exec times %v, want an even split", res.ExecMsEach)
	}
}

// TestPoolDetectBatch routes batches across pooled connections.
func TestPoolDetectBatch(t *testing.T) {
	srv := startServer(t)
	pool, err := DialPool(srv.Addr(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	for i := 0; i < 6; i++ {
		res, err := pool.DetectBatchContext(context.Background(), batchWindows(2, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verdicts[0].Anomaly || res.Verdicts[1].Anomaly {
			t.Fatalf("iteration %d: verdicts %+v", i, res.Verdicts)
		}
	}
}
