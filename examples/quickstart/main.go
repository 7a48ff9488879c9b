// Quickstart: the smallest end-to-end use of the public API — build the
// univariate HEC system with the unified builder, print the paper's two
// tables, then open a streaming session and judge live windows one at a
// time and as a minibatch, with a deadline on every call.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	// Build trains the three autoencoders, the REINFORCE routing policy,
	// and precomputes the test split. WithFast uses a smaller synthetic
	// power-demand dataset (~seconds instead of minutes); drop it for the
	// paper-faithful scale.
	sys, err := repro.Build(repro.Univariate, repro.WithFast())
	if err != nil {
		log.Fatal(err)
	}

	models := sys.ModelRows()
	fmt.Println("Table I — AD models:")
	for _, m := range models {
		fmt.Printf("  %-10s %7d params  acc %.2f%%  f1 %.3f  exec %.1f ms\n",
			m.Name, m.NumParams, m.Accuracy*100, m.F1, m.ExecMs)
	}

	rows, err := sys.SchemeRows()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Table II — model-selection schemes:")
	for _, r := range rows {
		fmt.Printf("  %-11s f1 %.3f  acc %.2f%%  delay %7.1f ms  reward %7.2f\n",
			r.Scheme, r.F1, r.Accuracy*100, r.MeanDelayMs, r.RewardSum)
	}

	// Online detection: a session routes incoming windows through the
	// trained contextual-bandit policy. Every call takes a context — here a
	// per-window deadline; against remote tiers (WithRemoteAddr) it rides
	// the wire so overloaded servers shed expired work.
	sess, err := sys.Open(repro.SchemeAdaptive)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	fmt.Println("streaming session — first 5 test windows, adaptive routing:")
	for i := 0; i < 5 && i < len(sys.TestSamples); i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		det, err := sess.Detect(ctx, sys.TestSamples[i].Frames)
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  window %d: anomaly=%-5v layer=%-5v delay %6.1f ms\n",
			i, det.Anomaly, det.Layer, det.DelayMs)
	}

	// Minibatch form: one vectorised dispatch per tier the policy picks.
	batch := make([][][]float64, 0, 8)
	for i := 0; i < 8 && i < len(sys.TestSamples); i++ {
		batch = append(batch, sys.TestSamples[i].Frames)
	}
	dets, err := sess.DetectBatch(context.Background(), batch)
	if err != nil {
		log.Fatal(err)
	}
	anomalies := 0
	for _, d := range dets {
		if d.Anomaly {
			anomalies++
		}
	}
	fmt.Printf("minibatch of %d windows: %d flagged anomalous\n", len(dets), anomalies)
}
