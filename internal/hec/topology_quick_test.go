package hec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: RTT is non-decreasing in the target layer and linear in the
// payload term when bandwidth is finite.
func TestQuickRTTMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		top := DefaultTopology()
		for i := range top.Links {
			top.Links[i].OneWayMs = rng.Float64() * 500
			if rng.Intn(2) == 0 {
				top.Links[i].KBPerMs = 1 + rng.Float64()*100
			}
		}
		payload := rng.Float64() * 64
		prev := -1.0
		for l := Layer(0); l < NumLayers; l++ {
			rtt, err := top.RTTMs(l, payload)
			if err != nil || rtt < prev {
				return false
			}
			prev = rtt
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: execution time scales linearly with model FLOPs on every
// device and both throughput curves.
func TestQuickExecTimeLinearInFlops(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		top := DefaultTopology()
		small := &fakeDetector{flops: 1 + int64(rng.Intn(1000))}
		big := &fakeDetector{flops: small.flops * 3}
		for l := Layer(0); l < NumLayers; l++ {
			for _, recurrent := range []bool{false, true} {
				ts, err := top.ExecTimeMs(l, small, 7, recurrent)
				if err != nil {
					return false
				}
				tb, err := top.ExecTimeMs(l, big, 7, recurrent)
				if err != nil {
					return false
				}
				if tb <= ts || tb/ts < 2.99 || tb/ts > 3.01 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
