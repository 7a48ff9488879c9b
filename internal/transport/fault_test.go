package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestFaultDelayInflatesServiceTime: a straggling server answers
// correctly but slowly, and — because the injected delay runs outside the
// measured processing window — the slowness lands in the client's
// measured network time, exactly where the delay-accounting contract puts
// non-compute slowness.
func TestFaultDelayInflatesServiceTime(t *testing.T) {
	srv := startServer(t)
	cli := dialT(t, srv.Addr(), 0)

	win := [][]float64{{2}, {0}}
	if _, err := cli.DetectContext(context.Background(), win); err != nil {
		t.Fatal(err)
	}

	const lag = 60 * time.Millisecond
	srv.SetFaultDelay(lag)
	if got := srv.FaultDelay(); got != lag {
		t.Fatalf("FaultDelay = %v, want %v", got, lag)
	}
	start := time.Now()
	res, err := cli.DetectContext(context.Background(), win)
	if err != nil {
		t.Fatalf("straggling server must still answer: %v", err)
	}
	if elapsed := time.Since(start); elapsed < lag {
		t.Fatalf("request took %v, want ≥ %v under fault delay", elapsed, lag)
	}
	if res.NetMs < float64(lag/time.Millisecond)*0.8 {
		t.Fatalf("NetMs = %g, want the injected lag accounted as network time", res.NetMs)
	}

	srv.SetFaultDelay(-time.Second) // negative clamps to off
	if got := srv.FaultDelay(); got != 0 {
		t.Fatalf("negative fault delay stored as %v, want 0", got)
	}
	if _, err := cli.DetectContext(context.Background(), win); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionSeversAndHeals: partitioning a server drops its existing
// connections (in-flight work fails as ErrConn, the retryable class) and
// refuses new ones, while healing restores service on a fresh dial — the
// semantics the flapping-health scenarios script against.
func TestPartitionSeversAndHeals(t *testing.T) {
	srv := startServer(t)
	cli := dialT(t, srv.Addr(), 0)
	win := [][]float64{{2}, {0}}
	if _, err := cli.DetectContext(context.Background(), win); err != nil {
		t.Fatal(err)
	}

	srv.Partition(true)
	if !srv.Partitioned() {
		t.Fatal("Partitioned() = false after Partition(true)")
	}
	if _, err := cli.DetectContext(context.Background(), win); !errors.Is(err, ErrConn) {
		t.Fatalf("detect over severed conn = %v, want ErrConn", err)
	}
	// New connections are refused while partitioned: either the dial fails
	// outright or the first request dies on the closed socket.
	if cli2, err := Dial(srv.Addr(), 0); err == nil {
		if _, err := cli2.DetectContext(context.Background(), win); err == nil {
			t.Fatal("detect through a partitioned server succeeded")
		}
		cli2.Close()
	}

	srv.Partition(false)
	if srv.Partitioned() {
		t.Fatal("Partitioned() = true after heal")
	}
	healed := dialT(t, srv.Addr(), 0)
	res, err := healed.DetectContext(context.Background(), win)
	if err != nil {
		t.Fatalf("detect after heal: %v", err)
	}
	if !res.Verdict.Anomaly {
		t.Fatalf("healed verdict = %+v, want anomaly", res.Verdict)
	}
}
