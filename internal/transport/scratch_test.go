package transport

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/sched"
)

// quietDetector judges without allocating — a batch's verdicts are a slice
// of a preallocated array — so an allocation count over a round trip
// counts the wire path alone. Batches hold at most 16 windows.
type quietDetector struct{}

var quietVerdicts [16]anomaly.Verdict

func (quietDetector) Name() string { return "quiet" }
func (quietDetector) Detect([][]float64) (anomaly.Verdict, error) {
	return anomaly.Verdict{MinLogPD: -1}, nil
}
func (quietDetector) DetectBatch(w [][][]float64) ([]anomaly.Verdict, error) {
	return quietVerdicts[:len(w)], nil
}
func (quietDetector) NumParams() int           { return 0 }
func (quietDetector) FlopsPerWindow(int) int64 { return 0 }

// univariateWindow is a paper-scale weekly window: 672 one-value frames.
func univariateWindow(seed float64) [][]float64 {
	w := make([][]float64, 672)
	for i := range w {
		w[i] = []float64{seed + float64(i)}
	}
	return w
}

// bytesPerRun is testing.AllocsPerRun for heap bytes: the average bytes f
// allocates per call, process-wide, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestDetectRoundTripAllocs pins the allocations of one loopback round
// trip, client and scheduling node together, on a detector that allocates
// nothing: the node decodes into recycled scratch and admits through the
// scheduler's one-allocation fast path, and neither end allocates to frame
// a message. The byte bound catches a window (5.4 KB of values, 16 KB of
// frame headers) decoded into fresh storage.
func TestDetectRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops recycled scratch at random")
	}
	srv, err := ServeWith("127.0.0.1:0", quietDetector{}, ServerOptions{
		ExecMs: func(int) float64 { return 1 },
		Sched:  &sched.Config{MaxConcurrent: 2, MaxQueue: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli := dialT(t, srv.Addr(), 0)
	ctx := context.Background()
	window := univariateWindow(0)
	batch := make([][][]float64, 16)
	for i := range batch {
		batch[i] = univariateWindow(float64(i))
	}
	for _, tc := range []struct {
		name      string
		allocs    float64
		bytes     float64
		roundTrip func() error
	}{
		// The node's request goroutine (its closure) and scheduler grant;
		// the client recycles its response channel.
		{"detect", 2, 512, func() error {
			_, err := cli.DetectContext(ctx, window)
			return err
		}},
		// Plus the batch response's verdicts and exec times, which the
		// caller keeps.
		{"batch", 4, 1024, func() error {
			_, err := cli.DetectBatchContext(ctx, batch)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 10; i++ { // grow the scratch and the buffers
				if err := tc.roundTrip(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := tc.roundTrip(); err != nil {
					t.Fatal(err)
				}
			})
			bytes := bytesPerRun(200, func() {
				if err := tc.roundTrip(); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s round trip: %.0f allocations, %.0f bytes", tc.name, allocs, bytes)
			if allocs > tc.allocs {
				t.Errorf("%s round trip allocates %.0f objects, want ≤ %.0f", tc.name, allocs, tc.allocs)
			}
			if bytes > tc.bytes {
				t.Errorf("%s round trip allocates %.0f bytes, want ≤ %.0f", tc.name, bytes, tc.bytes)
			}
		})
	}
}

// sameWindow reports whether two decoded windows match bit for bit, nil
// frames and empty ones told apart as reflect.DeepEqual tells them.
func sameWindow(a, b [][]float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !sameF64(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// sameRequest is reflect.DeepEqual with the windows compared bit for bit,
// so a NaN reading equals itself.
func sameRequest(a, b *DetectRequest) bool {
	if !sameWindow(a.Frames, b.Frames) || (a.Windows == nil) != (b.Windows == nil) || len(a.Windows) != len(b.Windows) {
		return false
	}
	for i := range a.Windows {
		if !sameWindow(a.Windows[i], b.Windows[i]) {
			return false
		}
	}
	ac, bc := *a, *b
	ac.Frames, ac.Windows, bc.Frames, bc.Windows = nil, nil, nil, nil
	return reflect.DeepEqual(ac, bc)
}

// FuzzDecodeRequestReuse decodes payload a into window scratch, then
// payload b into the same, now dirty, scratch: b must decode exactly as it
// does into fresh storage, and fail exactly when that fails.
func FuzzDecodeRequestReuse(f *testing.F) {
	var seeds [][]byte
	for _, req := range opRequests() {
		payload, err := BinaryCodec.AppendRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, payload)
	}
	for _, c := range hotPathCases() {
		if c.req != nil {
			seeds = append(seeds, unhex(c.hex))
		}
	}
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 4; i++ {
		payload, err := BinaryCodec.AppendRequest(nil, &DetectRequest{ID: uint64(i), Op: OpDetectBatch,
			Windows: [][][]float64{randFrames(rng, 6, 4), randFrames(rng, 6, 4), randFrames(rng, 6, 4)}})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, payload)
	}
	for i, a := range seeds {
		f.Add(a, seeds[(i+1)%len(seeds)])
		f.Add(a, seeds[(i+3)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var ws windowScratch
		var reused DetectRequest
		_ = decodeRequest(a, &reused, &ws)
		var fresh DetectRequest
		errFresh := BinaryCodec.DecodeRequest(b, &fresh)
		errReused := decodeRequest(b, &reused, &ws)
		if (errFresh == nil) != (errReused == nil) {
			t.Fatalf("fresh decode err %v, decode into used scratch err %v", errFresh, errReused)
		}
		if errFresh == nil && !sameRequest(&reused, &fresh) {
			t.Fatalf("decode into used scratch %+v, fresh decode %+v", reused, fresh)
		}
	})
}

// TestPooledScratchStaysBounded: a request whose windows grew its scratch
// past the cap is dropped, not pooled, so one large frame cannot pin its
// memory for the node's lifetime.
func TestPooledScratchStaysBounded(t *testing.T) {
	big := &DetectRequest{Op: OpDetectBatch, Windows: make([][][]float64, 64)}
	for i := range big.Windows {
		big.Windows[i] = univariateWindow(float64(i)) // 64 × 672 frames: 1.4 MB of headers and values
	}
	payload, err := BinaryCodec.AppendRequest(nil, big)
	if err != nil {
		t.Fatal(err)
	}
	sr := reqPool.Get().(*serverRequest)
	if err := decodeRequest(payload, &sr.req, &sr.win); err != nil {
		t.Fatal(err)
	}
	if sr.win.bytes() <= maxKeptBytes {
		t.Fatalf("test batch holds %d bytes of scratch, want more than the %d-byte cap", sr.win.bytes(), maxKeptBytes)
	}
	sr.recycle()
	for i := 0; i < 16; i++ {
		got := reqPool.Get().(*serverRequest)
		if got == sr {
			t.Fatal("scratch grown past the cap went back to the pool")
		}
		if n := got.bytes(); n > maxKeptBytes {
			t.Fatalf("pool holds a %d-byte scratch, over the %d-byte cap", n, maxKeptBytes)
		}
	}
}

// hashDetector checks that a request's windows stay put while it runs: it
// hashes each window on entry, waits at a barrier so other requests decode
// and run meanwhile, and hashes again. A window whose storage was recycled
// under it fails the call; otherwise the verdict carries the hash, so the
// client can tell its own window's verdict from another's.
type hashDetector struct{ b *barrier }

func windowHash(w [][]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, f := range w {
		for _, x := range f {
			u := math.Float64bits(x)
			for i := range buf {
				buf[i] = byte(u >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64() >> 12 // exact as a float64
}

func (hashDetector) Name() string { return "hash" }
func (d hashDetector) Detect(w [][]float64) (anomaly.Verdict, error) {
	vs, err := d.DetectBatch([][][]float64{w})
	if err != nil {
		return anomaly.Verdict{}, err
	}
	return vs[0], nil
}
func (d hashDetector) DetectBatch(ws [][][]float64) ([]anomaly.Verdict, error) {
	before := make([]uint64, len(ws))
	for i, w := range ws {
		before[i] = windowHash(w)
	}
	d.b.wait(20 * time.Millisecond)
	out := make([]anomaly.Verdict, len(ws))
	for i, w := range ws {
		if after := windowHash(w); after != before[i] {
			return nil, fmt.Errorf("window %d changed while it was judged: hash %x, then %x", i, before[i], after)
		}
		out[i] = anomaly.Verdict{MinLogPD: float64(before[i])}
	}
	return out, nil
}
func (hashDetector) NumParams() int           { return 0 }
func (hashDetector) FlopsPerWindow(int) int64 { return 0 }

// barrier releases its waiters k at a time, or each after a timeout.
type barrier struct {
	mu   sync.Mutex
	k, n int
	gen  chan struct{}
}

func (b *barrier) wait(timeout time.Duration) {
	b.mu.Lock()
	gen := b.gen
	if b.n++; b.n == b.k {
		close(gen)
		b.gen, b.n = make(chan struct{}), 0
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	select {
	case <-gen:
	case <-time.After(timeout):
	}
}

// TestPipelinedWindowsKeepTheirStorage pipelines many distinct windows —
// single ones and batches — on one connection to a scheduling node, with
// up to eight judged at once while the rest queue and decode. Every window
// must reach the detector intact and stay intact through the call, and
// every verdict must come back to the caller whose window it judged. Run
// under -race, it also checks that a request's scratch is never touched by
// two requests at once.
func TestPipelinedWindowsKeepTheirStorage(t *testing.T) {
	srv, err := ServeWith("127.0.0.1:0", hashDetector{&barrier{k: 8, gen: make(chan struct{})}}, ServerOptions{
		Sched: &sched.Config{MaxConcurrent: 8, MaxQueue: maxInFlightPerConn},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli := dialT(t, srv.Addr(), 0)
	// A response lost to a mangled ID fails the call instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const callers = 96
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			window := func() [][]float64 {
				w := make([][]float64, 8+rng.Intn(64))
				for i := range w {
					w[i] = []float64{float64(c), rng.NormFloat64(), rng.NormFloat64()}
				}
				return w
			}
			for round := 0; round < 4; round++ {
				if c%3 == 0 {
					batch := [][][]float64{window(), window(), window()}
					res, err := cli.DetectBatchContext(ctx, batch)
					if err != nil {
						errs <- err
						return
					}
					for i, v := range res.Verdicts {
						if want := float64(windowHash(batch[i])); v.MinLogPD != want {
							errs <- fmt.Errorf("caller %d batch window %d: verdict of %v, want %v", c, i, v.MinLogPD, want)
							return
						}
					}
					continue
				}
				w := window()
				res, err := cli.DetectContext(ctx, w)
				if err != nil {
					errs <- err
					return
				}
				if want := float64(windowHash(w)); res.Verdict.MinLogPD != want {
					errs <- fmt.Errorf("caller %d: verdict of %v, want %v", c, res.Verdict.MinLogPD, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
