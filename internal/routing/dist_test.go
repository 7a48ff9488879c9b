package routing

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/nn"
	"repro/internal/transport"
)

// fleetSnapshot builds a snapshot big enough to span many 256 KiB chunks,
// with values only the f64 dtype reproduces — so a transfer takes several
// round trips and a mid-stream replica death lands between chunks.
func fleetSnapshot(values int) *transport.ModelSnapshot {
	vals := make([]float64, values)
	for i := range vals {
		vals[i] = 0.001*float64(i) + 1.0/3.0
	}
	return &transport.ModelSnapshot{
		Kind: "autoencoder", Tier: "Edge", InputDim: 8,
		Weights: &nn.Snapshot{
			Names:  []string{"big"},
			Shapes: [][2]int{{1, values}},
			Values: [][]float64{vals},
		},
		Scorer: &anomaly.ScorerState{Mean: []float64{0}, Cov: []float64{1}, Threshold: -4},
		Conf:   anomaly.DefaultConfidence(),
	}
}

func startModelReplica(t *testing.T, snap *transport.ModelSnapshot) *transport.Server {
	t.Helper()
	srv, err := transport.ServeWith("127.0.0.1:0", stubDetector{}, transport.ServerOptions{Model: snap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestModelFetchFailsOverMidTransfer kills one of two replicas while a
// multi-chunk model transfer is streaming: because every replica serves the
// same content-addressed payload and the server keeps no per-transfer
// state, the set resumes the transfer byte-exact on the survivor and the
// assembled snapshot still hashes to the advertised version. Run under
// -race with a goroutine-leak bracket, this is the distribution path's
// failover smoke test.
func TestModelFetchFailsOverMidTransfer(t *testing.T) {
	baseline := runtime.NumGoroutine()
	snap := fleetSnapshot(200_000) // ~1.6 MB canonical payload → 7 chunks
	srvA := startModelReplica(t, snap)
	srvB := startModelReplica(t, snap)
	if srvA.ModelVersion() == "" || srvA.ModelVersion() != srvB.ModelVersion() {
		t.Fatalf("replicas disagree on version: %q vs %q", srvA.ModelVersion(), srvB.ModelVersion())
	}
	set, err := New(Config{
		Addrs:    []string{srvA.Addr(), srvB.Addr()},
		PoolSize: 2,
		Policy:   RoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every chunk request sleeps, so the transfer is still in flight when
	// the victim dies ~2 chunks in.
	srvA.SetFaultDelay(25 * time.Millisecond)
	srvB.SetFaultDelay(25 * time.Millisecond)

	type result struct {
		snap *transport.ModelSnapshot
		err  error
	}
	done := make(chan result, 1)
	ctx := context.Background()
	go func() {
		got, _, err := transport.RefreshModel(ctx, set, nil)
		done <- result{got, err}
	}()
	time.Sleep(60 * time.Millisecond)
	srvA.Close() // victim dies mid-transfer

	var res result
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("model transfer hung after replica death")
	}
	if res.err != nil {
		t.Fatalf("transfer did not fail over: %v", res.err)
	}
	man, err := transport.ManifestOf(res.snap)
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != srvB.ModelVersion() {
		t.Fatalf("assembled snapshot hashes to %.8s, survivor serves %.8s", man.Version, srvB.ModelVersion())
	}
	for i, v := range snap.Weights.Values[0] {
		if math.Float64bits(res.snap.Weights.Values[0][i]) != math.Float64bits(v) {
			t.Fatalf("value %d corrupted across the failover: %v != %v", i, res.snap.Weights.Values[0][i], v)
		}
	}

	// The survivor answers a steady-state refresh with a version match.
	srvB.SetFaultDelay(0)
	if _, upToDate, err := transport.RefreshModel(ctx, set, res.snap); err != nil || !upToDate {
		t.Fatalf("steady-state refresh after failover: upToDate=%v err=%v", upToDate, err)
	}

	set.Close()
	srvB.Close()
	waitForGoroutines(t, baseline)
}

// TestModelRefreshDeltaAcrossReplicas rolls both replicas to a new version
// and checks the set's refresh ships a delta that reconstructs it.
func TestModelRefreshDeltaAcrossReplicas(t *testing.T) {
	base := fleetSnapshot(4_000)
	next := fleetSnapshot(4_000)
	next.Weights.Values[0][123] = 7.25
	srvA := startModelReplica(t, base)
	srvB := startModelReplica(t, base)
	set, err := New(Config{Addrs: []string{srvA.Addr(), srvB.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	ctx := context.Background()

	got, upToDate, err := transport.RefreshModel(ctx, set, nil)
	if err != nil || upToDate {
		t.Fatalf("first fetch: upToDate=%v err=%v", upToDate, err)
	}
	for _, srv := range []*transport.Server{srvA, srvB} {
		if err := srv.UpdateModel(stubDetector{}, nil, next); err != nil {
			t.Fatal(err)
		}
	}
	refreshed, upToDate, err := transport.RefreshModel(ctx, set, got)
	if err != nil || upToDate {
		t.Fatalf("delta refresh: upToDate=%v err=%v", upToDate, err)
	}
	if refreshed.Weights.Values[0][123] != 7.25 {
		t.Fatalf("delta refresh lost the update: %v", refreshed.Weights.Values[0][123])
	}
	man, err := transport.ManifestOf(refreshed)
	if err != nil {
		t.Fatal(err)
	}
	if man.Version != srvA.ModelVersion() {
		t.Fatalf("refreshed snapshot hashes to %.8s, fleet serves %.8s", man.Version, srvA.ModelVersion())
	}
}

// recordingPeer wraps a ModelPeer and logs each call RefreshModel makes:
// "probe" for a manifest, "delta" or "full" for a chunk.
type recordingPeer struct {
	transport.ModelPeer
	calls []string
}

func (r *recordingPeer) ModelManifestContext(ctx context.Context) (*transport.ModelManifest, error) {
	r.calls = append(r.calls, "probe")
	return r.ModelPeer.ModelManifestContext(ctx)
}

func (r *recordingPeer) ModelChunkContext(ctx context.Context, offset, size int, want []string, wantDelta bool) (transport.ModelChunk, error) {
	if wantDelta {
		r.calls = append(r.calls, "delta")
	} else {
		r.calls = append(r.calls, "full")
	}
	return r.ModelPeer.ModelChunkContext(ctx, offset, size, want, wantDelta)
}

// peerSnapshot is a small two-tensor model; every payload fits one chunk,
// so each transfer is one chunk call.
func peerSnapshot(names []string, shapes [][2]int, values [][]float64) *transport.ModelSnapshot {
	return &transport.ModelSnapshot{
		Kind: "autoencoder", Tier: "Edge", InputDim: 4,
		Weights: &nn.Snapshot{Names: names, Shapes: shapes, Values: values},
		Scorer:  &anomaly.ScorerState{Mean: []float64{0}, Cov: []float64{1}, Threshold: -4},
		Conf:    anomaly.DefaultConfidence(),
	}
}

// TestRefreshModelOverEveryPeer runs the one model-transfer protocol over
// each peer shape — one connection, a pool, and a replica set — through a
// fleet rolling across versions, and pins the calls each refresh makes:
// a first fetch ships the full payload without a probe, a matching base
// costs exactly one probe, a changed tensor ships as a delta, and a delta
// that cannot rebuild the new version falls back to a full fetch.
func TestRefreshModelOverEveryPeer(t *testing.T) {
	v1 := peerSnapshot([]string{"enc", "dec"}, [][2]int{{2, 3}, {3, 2}},
		[][]float64{{1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 1}})
	// One tensor's values change.
	v2 := peerSnapshot([]string{"enc", "dec"}, [][2]int{{2, 3}, {3, 2}},
		[][]float64{{1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 0.5}})
	// A reshape under the same names and order: the delta carries the new
	// shape, so the merge rebuilds the new version exactly.
	v3 := peerSnapshot([]string{"enc", "dec"}, [][2]int{{2, 3}, {2, 3}},
		[][]float64{{1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 0.5}})
	// An architecture change that keeps the tensor names but changes a
	// shape and the layer order: merged over the base's order, the delta
	// cannot rebuild the new version, so the refresh must fetch it whole.
	v4 := peerSnapshot([]string{"dec", "enc"}, [][2]int{{1, 6}, {3, 2}},
		[][]float64{{6, 5, 4, 3, 2, 0.5}, {1, 2, 3, 4, 5, 7}})

	steps := []struct {
		name     string
		serve    *transport.ModelSnapshot // rolled out before the refresh; nil keeps the current model
		base     *transport.ModelSnapshot
		upToDate bool
		calls    []string
	}{
		{"first fetch", nil, nil, false, []string{"full"}},
		{"up to date", nil, v1, true, []string{"probe"}},
		{"one-tensor delta", v2, v1, false, []string{"probe", "delta"}},
		{"reshape", v3, v2, false, []string{"probe", "delta"}},
		{"architecture change", v4, v3, false, []string{"probe", "delta", "full"}},
	}

	peers := []struct {
		name     string
		replicas int
		dial     func(t *testing.T, addrs []string) transport.ModelPeer
	}{
		{"Client", 1, func(t *testing.T, addrs []string) transport.ModelPeer {
			c, err := transport.Dial(addrs[0], 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		}},
		{"Pool", 1, func(t *testing.T, addrs []string) transport.ModelPeer {
			p, err := transport.DialPool(addrs[0], 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			return p
		}},
		{"ReplicaSet", 2, func(t *testing.T, addrs []string) transport.ModelPeer {
			s, err := New(Config{Addrs: addrs})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}},
	}
	for _, pc := range peers {
		t.Run(pc.name, func(t *testing.T) {
			var srvs []*transport.Server
			var addrs []string
			for i := 0; i < pc.replicas; i++ {
				srv := startModelReplica(t, v1)
				srvs = append(srvs, srv)
				addrs = append(addrs, srv.Addr())
			}
			peer := &recordingPeer{ModelPeer: pc.dial(t, addrs)}
			ctx := context.Background()
			for _, st := range steps {
				if st.serve != nil {
					for _, srv := range srvs {
						if err := srv.UpdateModel(stubDetector{}, nil, st.serve); err != nil {
							t.Fatal(err)
						}
					}
				}
				peer.calls = nil
				got, upToDate, err := transport.RefreshModel(ctx, peer, st.base)
				if err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				if !slices.Equal(peer.calls, st.calls) {
					t.Fatalf("%s: calls %v, want %v", st.name, peer.calls, st.calls)
				}
				if upToDate != st.upToDate {
					t.Fatalf("%s: upToDate = %v, want %v", st.name, upToDate, st.upToDate)
				}
				if upToDate {
					if got != nil {
						t.Fatalf("%s: an up-to-date refresh returned a snapshot", st.name)
					}
					continue
				}
				man, err := transport.ManifestOf(got)
				if err != nil {
					t.Fatal(err)
				}
				if want := srvs[0].ModelVersion(); man.Version != want {
					t.Fatalf("%s: refreshed model hashes to %.8s, peer serves %.8s", st.name, man.Version, want)
				}
			}
		})
	}
}
