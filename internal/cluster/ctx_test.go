package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/hec"
	"repro/internal/transport"
)

// slowRemote blocks each detection until its delay elapses or ctx is done,
// like the real transport under an injected link delay.
type slowRemote struct {
	delay time.Duration
}

func (r *slowRemote) DetectContext(ctx context.Context, frames [][]float64) (transport.DetectResult, error) {
	t := time.NewTimer(r.delay)
	defer t.Stop()
	select {
	case <-t.C:
		return transport.DetectResult{Verdict: confident(false), ExecMs: 1, NetMs: 1, E2EMs: 2}, nil
	case <-ctx.Done():
		return transport.DetectResult{}, ctx.Err()
	}
}

// TestRunCancelledDrainsFleet cancels a live load-generation run midway:
// RunFleet must return ctx's error promptly even though every device is
// stuck in a slow remote wait.
func TestRunCancelledDrainsFleet(t *testing.T) {
	dev := testDevice(confident(true), nil, nil)
	dev.Remotes[hec.LayerEdge] = &slowRemote{delay: 5 * time.Second}
	samples := make([]hec.Sample, 50)
	for i := range samples {
		samples[i] = hec.Sample{Frames: window, Label: i%2 == 0}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := runCohort(ctx, dev, samples, Cohort{Scheme: SchemeEdge, Devices: 4, Rounds: 4})
	elapsed := time.Since(start)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled run drained after %v", elapsed)
	}
}

// TestDeviceRunPreCancelled refuses local work on a done context.
func TestDeviceRunPreCancelled(t *testing.T) {
	dev := testDevice(confident(true), nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dev.Run(ctx, SchemeIoT, window); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if _, err := dev.RunBatch(ctx, SchemeIoT, [][][]float64{window}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunBatch err = %v, want context.Canceled", err)
	}
}
