package repro

import (
	"context"
	"runtime"
	"sync"
	"testing"
)

// fastMultiSystem builds the fast multivariate (seq2seq) system once and
// shares it across tests — LSTM training is the expensive part, and the
// System is read-only after build.
var (
	fastMultiOnce sync.Once
	fastMultiSys  *System
	fastMultiErr  error
)

func fastMultiSystem(t testing.TB) *System {
	t.Helper()
	if testing.Short() {
		t.Skip("LSTM training is slow; skipped with -short")
	}
	fastMultiOnce.Do(func() {
		fastMultiSys, fastMultiErr = Build(Multivariate, WithFast())
	})
	if fastMultiErr != nil {
		t.Fatalf("building shared fast multivariate system: %v", fastMultiErr)
	}
	return fastMultiSys
}

// TestMultivariateSeq2SeqReplicaFailover is the scenario engine's
// end-to-end acceptance: a Session streams DetectBatch against a
// two-replica cloud tier hosting the multivariate BiLSTM-seq2seq
// detector, one replica is killed mid-stream, and not a single window may
// drop — every batch keeps answering through the survivor with verdicts
// identical to before the kill. The session's TierStatus must then show
// the failover the routing layer performed: the victim expelled with its
// failure counted, the survivor carrying the traffic. Runs inside a
// goroutine-leak bracket; CI runs it under -race.
func TestMultivariateSeq2SeqReplicaFailover(t *testing.T) {
	sys := fastMultiSystem(t)
	baseline := runtime.NumGoroutine()

	srvA := startTier(t, sys, LayerCloud)
	srvB := startTier(t, sys, LayerCloud)
	sess, err := sys.Open(SchemeCloud,
		WithRemoteAddrs(LayerCloud, srvA.Addr(), srvB.Addr()),
		WithRouting(RouteLeastInFlight()),
		WithRetryBudget(2),
	)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	windows := [][][]float64{sys.TestSamples[0].Frames, sys.TestSamples[1].Frames}
	want, err := sess.DetectBatch(ctx, windows)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range want {
		if d.Layer != LayerCloud {
			t.Fatalf("pre-kill detection ran at %v, want cloud", d.Layer)
		}
	}

	// Kill replica A mid-stream: zero dropped windows, stable verdicts.
	const batches = 10
	dispatched, answered := 0, 0
	for i := 0; i < batches; i++ {
		if i == 2 {
			srvA.Close()
		}
		dispatched += len(windows)
		got, err := sess.DetectBatch(ctx, windows)
		if err != nil {
			t.Fatalf("batch %d did not fail over: %v", i, err)
		}
		answered += len(got)
		for j := range got {
			if got[j].Anomaly != want[j].Anomaly || got[j].Confident != want[j].Confident {
				t.Fatalf("batch %d window %d verdict changed across failover: %+v vs %+v",
					i, j, got[j], want[j])
			}
		}
	}
	if answered != dispatched {
		t.Fatalf("windows dropped across failover: %d answered of %d dispatched", answered, dispatched)
	}

	// The routing layer's own counters must show what happened.
	tiers := sess.TierStatus()
	if len(tiers) != 1 || tiers[0].Layer != LayerCloud {
		t.Fatalf("tier status = %+v, want the cloud replica set", tiers)
	}
	victim, survivor := tiers[0].Replicas[0], tiers[0].Replicas[1]
	if victim.Healthy {
		t.Fatalf("killed replica still healthy: %+v", victim)
	}
	if victim.Expels < 1 || victim.Failures < 1 {
		t.Fatalf("victim shows no failover signature: %+v", victim)
	}
	if survivor.Requests == 0 || !survivor.Healthy {
		t.Fatalf("survivor not carrying traffic: %+v", survivor)
	}

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sess.TierStatus(); got != nil {
		t.Fatalf("TierStatus after Close = %+v, want nil", got)
	}
	srvB.Close() // idempotent with the cleanup; drain before the leak check
	waitForGoroutines(t, baseline)
}
