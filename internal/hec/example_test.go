package hec_test

import (
	"context"
	"fmt"
	"log"
	"reflect"

	"repro/internal/anomaly"
	"repro/internal/hec"
)

// thresholdDetector is a minimal anomaly.Detector for the example: it flags
// a window when the first reading's magnitude exceeds its threshold.
type thresholdDetector struct {
	name      string
	threshold float64
	flops     int64
}

func (d thresholdDetector) Name() string { return d.name }

func (d thresholdDetector) Detect(frames [][]float64) (anomaly.Verdict, error) {
	v := frames[0][0]
	if v < 0 {
		v = -v
	}
	return anomaly.Verdict{Anomaly: v > d.threshold, Confident: true, MinLogPD: -v}, nil
}

func (d thresholdDetector) NumParams() int             { return 1 }
func (d thresholdDetector) FlopsPerWindow(T int) int64 { return d.flops * int64(T) }

// ExamplePrecompute shows the precompute-then-replay trick: run every
// detector on every sample once, concurrently, then read any layer's
// verdicts from the cache. The parallel engine's result is identical to the
// sequential path for any worker count.
func ExamplePrecompute() {
	detectors := [hec.NumLayers]anomaly.Detector{
		thresholdDetector{name: "coarse-iot", threshold: 1.0, flops: 10},
		thresholdDetector{name: "mid-edge", threshold: 0.5, flops: 100},
		thresholdDetector{name: "fine-cloud", threshold: 0.1, flops: 1000},
	}
	dep, err := hec.NewDeployment(hec.DefaultTopology(), detectors, false)
	if err != nil {
		log.Fatal(err)
	}
	samples := []hec.Sample{
		{Frames: [][]float64{{0.05}}, Label: false},
		{Frames: [][]float64{{0.7}}, Label: true},
		{Frames: [][]float64{{2.4}}, Label: true},
	}

	// Precompute fans samples out across one worker per CPU...
	pc, err := hec.Precompute(context.Background(), dep, nil, samples)
	if err != nil {
		log.Fatal(err)
	}
	// ...and returns exactly what the sequential path would.
	seq, err := hec.PrecomputeWith(context.Background(), dep, nil, samples, hec.PrecomputeOptions{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("samples precomputed:", len(pc.Outcomes))
	fmt.Println("identical to sequential:", reflect.DeepEqual(seq.Outcomes, pc.Outcomes))

	// Every (sample, layer) verdict is cached — no model runs again.
	correct := 0
	for i, s := range samples {
		if pc.Outcomes[i][hec.LayerCloud].Verdict.Anomaly == s.Label {
			correct++
		}
	}
	fmt.Println("cloud accuracy:", float64(correct)/float64(len(samples)))
	// Output:
	// samples precomputed: 3
	// identical to sequential: true
	// cloud accuracy: 1
}
