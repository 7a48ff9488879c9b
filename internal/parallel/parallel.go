// Package parallel provides the bounded worker-pool primitives shared by
// the repository's embarrassingly-parallel loops: detector precomputation,
// scheme evaluation, per-tier model training and the builds of a
// repro.Study.
//
// The package makes one determinism promise on which the HEC pipeline
// relies: work is identified by index and results land at their index, so
// on success callers observe output identical to a sequential loop no
// matter how many goroutines ran. On failure the error reported is the
// lowest-indexed one among the tasks that executed (later tasks may be
// abandoned once a failure is seen).
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Sleep blocks for d or until ctx is done, whichever comes first,
// returning nil after a full sleep and ctx.Err() when cut short. The
// Background-context fast path avoids the timer allocation, which matters
// on the transport's hot delay-emulation loop.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Workers resolves a requested worker count: values < 1 mean "use one
// worker per available CPU" (GOMAXPROCS), and the count is clamped to n so
// no goroutine is spawned without work.
func Workers(requested, n int) int {
	w := requested
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// indexedError pairs an error with the task index that produced it, so
// ForEach can report the lowest-indexed failure deterministically.
type indexedError struct {
	index int
	err   error
}

// ForEach runs fn(0..n-1) across at most workers goroutines and waits for
// completion. Tasks are handed out by an atomic counter, so with one worker
// the indices run strictly in order — the sequential loop is the
// single-worker special case of this function, not a separate code path.
//
// On failure, tasks not yet started are abandoned and the returned error is
// the lowest-indexed failure among the tasks that executed. fn must be safe
// to call concurrently from multiple goroutines.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), workers, n, fn)
}

// ForEachCtx is ForEach with cooperative cancellation: once ctx is done, no
// new task is started and the call returns promptly with ctx.Err() (tasks
// already running finish first — fn is never interrupted mid-flight). A
// task failure still wins over cancellation when both occur: the returned
// error is the lowest-indexed task error if any task failed, ctx.Err() if
// the loop was cut short by cancellation alone, and nil only when all n
// tasks completed.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	done := ctx.Done()
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		failed   atomic.Bool
		canceled atomic.Bool
		mu       sync.Mutex
		first    *indexedError
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if first == nil || i < first.index {
			first = &indexedError{index: i, err: err}
		}
		mu.Unlock()
		failed.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				select {
				case <-done:
					canceled.Store(true)
					return
				default:
				}
				if err := fn(i); err != nil {
					record(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first.err
	}
	if canceled.Load() {
		return ctx.Err()
	}
	return nil
}

// Map runs fn(0..n-1) across at most workers goroutines and returns the
// results in index order. On failure it returns the lowest-indexed error
// and no results.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), workers, n, fn)
}

// MapCtx is Map with cooperative cancellation (see ForEachCtx for the
// error-precedence contract). On cancellation it returns ctx.Err() and no
// results.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachCtx(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Group runs heterogeneous tasks concurrently and reports the first error
// recorded — a minimal errgroup for the cases where tasks are not an
// indexed range (e.g. "train the policy while precomputing the test
// split"). Unlike ForEach, Group does not abandon siblings on failure: every
// task started runs to completion before Wait returns.
type Group struct {
	wg   sync.WaitGroup
	once sync.Once
	err  error
}

// Go starts fn on its own goroutine.
func (g *Group) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				g.once.Do(func() { g.err = fmt.Errorf("parallel: task panicked: %v", r) })
			}
		}()
		if err := fn(); err != nil {
			g.once.Do(func() { g.err = err })
		}
	}()
}

// Wait blocks until every task started with Go has returned, then reports
// the first recorded error, if any.
func (g *Group) Wait() error {
	g.wg.Wait()
	return g.err
}
