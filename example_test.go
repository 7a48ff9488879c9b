package repro_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

// ExampleBuild is the quick-start path from the README: build the
// univariate system at reduced scale through the unified builder, then
// regenerate the paper's tables.
func ExampleBuild() {
	sys, err := repro.Build(repro.Univariate, repro.WithFast())
	if err != nil {
		log.Fatal(err)
	}
	models := sys.ModelRows() // Table I
	for _, m := range models {
		fmt.Println(m.Layer, m.Name)
	}
	schemes, err := sys.SchemeRows() // Table II
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("schemes evaluated:", len(schemes))
	fmt.Println("adaptive beats always-cloud delay:",
		schemes[4].MeanDelayMs < schemes[2].MeanDelayMs)
	// Output:
	// IoT AE-IoT
	// Edge AE-Edge
	// Cloud AE-Cloud
	// schemes evaluated: 5
	// adaptive beats always-cloud delay: true
}

// ExampleSystem_Open streams windows through a detection session: the
// trained contextual-bandit policy routes each window to a tier, per
// sample or in minibatches, under a per-call deadline.
func ExampleSystem_Open() {
	sys, err := repro.Build(repro.Univariate, repro.WithFast())
	if err != nil {
		log.Fatal(err)
	}
	sess, err := sys.Open(repro.SchemeAdaptive)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	det, err := sess.Detect(ctx, sys.TestSamples[0].Frames)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("verdict for window 0 matches the batch report:",
		det.Anomaly == sys.Precomputed().Outcomes[0][det.Layer].Verdict.Anomaly)

	windows := [][][]float64{
		sys.TestSamples[0].Frames,
		sys.TestSamples[1].Frames,
		sys.TestSamples[2].Frames,
	}
	dets, err := sess.DetectBatch(ctx, windows)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("minibatch detections:", len(dets))
	fmt.Println("batch agrees with per-window:", dets[0].Anomaly == det.Anomaly && dets[0].Layer == det.Layer)
	// Output:
	// verdict for window 0 matches the batch report: true
	// minibatch detections: 3
	// batch agrees with per-window: true
}
