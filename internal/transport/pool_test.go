package transport

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPoolEvictsDeadConnections is the regression test for the round-robin
// trap: a pool whose server bounced must not keep rotating onto dead
// sockets (failing every Nth request forever) — broken connections are
// evicted on error and redialed lazily, so after at most one failing pass
// the pool is fully healed.
func TestPoolEvictsDeadConnections(t *testing.T) {
	srv := startServer(t)
	addr := srv.Addr()
	pool, err := DialPool(addr, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for i := 0; i < 6; i++ {
		if _, err := pool.DetectContext(context.Background(), [][]float64{{2}}); err != nil {
			t.Fatalf("pre-bounce request %d: %v", i, err)
		}
	}

	// Bounce the server: every pooled connection dies, then the same
	// address comes back up.
	srv.Close()
	revived, err := Serve(addr, thresholdDetector{}, nil)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	defer revived.Close()

	// The first pass may fail as evictions are discovered (requests that
	// rode a dying socket are lost, not replayed — replay is the routing
	// layer's job); every subsequent request must succeed via redialed
	// connections.
	for i := 0; i < 3; i++ {
		_, _ = pool.DetectContext(context.Background(), [][]float64{{2}})
	}
	for i := 0; i < 9; i++ {
		if _, err := pool.DetectContext(context.Background(), [][]float64{{2}}); err != nil {
			t.Fatalf("request %d after heal: %v — dead connection still in rotation", i, err)
		}
	}
	if pool.Evicted() == 0 {
		t.Fatal("pool reports zero evictions after a server bounce")
	}
}

// TestPoolAllReplicasDown pins the terminal error: with the server gone
// for good, requests fail with a connection-classified error instead of
// hanging.
func TestPoolAllReplicasDown(t *testing.T) {
	srv := startServer(t)
	pool, err := DialPool(srv.Addr(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	srv.Close()
	var lastErr error
	for i := 0; i < 4; i++ {
		if _, lastErr = pool.DetectContext(context.Background(), [][]float64{{2}}); lastErr == nil {
			t.Fatal("detect against a dead server must fail")
		}
	}
	if !strings.Contains(lastErr.Error(), "no usable connection") {
		t.Fatalf("err = %v, want a no-usable-connection error after redials fail", lastErr)
	}
}

// TestServerShutdownDrains covers the graceful-drain contract: requests in
// flight when Shutdown starts still get their responses, while the
// listener refuses new connections.
func TestServerShutdownDrains(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", thresholdDetector{SleepMs: 200}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const inflight = 3
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cli.DetectContext(context.Background(), [][]float64{{2}})
			errs <- err
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the slow requests reach the server

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("in-flight request failed during drain: %v", err)
		}
	}
	// The drained server is gone: new dials must fail.
	if _, err := Dial(srv.Addr(), 0); err == nil {
		t.Fatal("dial after Shutdown must fail")
	}
	// And Close after Shutdown stays a no-op.
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after Shutdown: %v", err)
	}
}

// TestServerShutdownDeadline checks the force-close path: a drain stuck
// behind a handler slower than ctx allows returns ctx's error and still
// tears everything down.
func TestServerShutdownDeadline(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", thresholdDetector{SleepMs: 2000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	go func() { _, _ = cli.DetectContext(context.Background(), [][]float64{{2}}) }()
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown must report the blown drain budget")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Shutdown took %v despite a 100ms budget", elapsed)
	}
}
