// Command hecdemo is the terminal equivalent of the paper's GUI demo
// (Fig. 3): it builds a system, opens a streaming detection Session, and
// judges the test stream window by window — per-sample raw-signal summary,
// detection vs ground truth, delay and chosen layer, and the running
// accuracy/F1 — for a user-selected scheme, with tunable dataset
// fractions, exactly the knobs the GUI exposes. ^C cancels the stream
// mid-flight through the session's context.
//
// Usage:
//
//	hecdemo -data univariate -scheme adaptive -rate 20
//	hecdemo -data multivariate -scheme successive -anomaly-fraction 0.5
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/hec"
	"repro/internal/mat"
	"repro/internal/parallel"
)

func main() {
	var (
		data     = flag.String("data", "univariate", "dataset: univariate | multivariate")
		scheme   = flag.String("scheme", "adaptive", "scheme: iot | edge | cloud | successive | adaptive (or ours) | pathological")
		rate     = flag.Float64("rate", 50, "samples per second to stream (0 = no pacing)")
		fraction = flag.Float64("anomaly-fraction", -1, "resample the test stream to this anomaly fraction (-1 keeps the split)")
		fast     = flag.Bool("fast", true, "reduced-scale build")
		limit    = flag.Int("limit", 0, "stop after N samples (0 = all)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *data, *scheme, *rate, *fraction, *fast, *limit); err != nil {
		fmt.Fprintln(os.Stderr, "hecdemo:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, data, schemeName string, rate, fraction float64, fast bool, limit int) error {
	var kind repro.Kind
	switch strings.ToLower(data) {
	case "univariate", "uni":
		kind = repro.Univariate
	case "multivariate", "multi":
		kind = repro.Multivariate
	default:
		return fmt.Errorf("unknown -data %q", data)
	}
	var opts []repro.Option
	if fast {
		opts = append(opts, repro.WithFast())
	}
	fmt.Printf("building %s system...\n", data)
	sys, err := repro.BuildContext(ctx, kind, opts...)
	if err != nil {
		return err
	}

	if strings.EqualFold(schemeName, "ours") {
		schemeName = "adaptive" // the paper's name for its own method
	}
	scheme, err := repro.ParseScheme(strings.ToLower(schemeName))
	if err != nil {
		return err
	}

	// Open a streaming session and judge the stream online, window by
	// window — the live form of the GUI demo. The default session serves
	// every tier in-process with the calibrated delay model, so the
	// numbers line up with Table II.
	sess, err := sys.Open(scheme)
	if err != nil {
		return err
	}
	defer sess.Close()

	labels := make([]bool, len(sys.TestSamples))
	for i, s := range sys.TestSamples {
		labels[i] = s.Label
	}
	order := streamOrder(labels, fraction)
	if limit > 0 && limit < len(order) {
		order = order[:limit]
	}

	fmt.Printf("\n=== %s | scheme: %s | %d samples ===\n", data, scheme, len(order))
	fmt.Printf("%-6s %-28s %-5s %-5s %-10s %-6s %-18s\n",
		"i", "signal (min/mean/max)", "det", "truth", "delay(ms)", "layer", "cumulative acc/F1")
	var pace time.Duration
	if rate > 0 {
		pace = time.Duration(float64(time.Second) / rate)
	}
	var (
		conf        cumulative
		delaySum    float64
		layerCounts [hec.NumLayers]int
		streamed    int
	)
	for n, i := range order {
		det, err := sess.Detect(ctx, sys.TestSamples[i].Frames)
		if errors.Is(err, repro.ErrCanceled) {
			fmt.Println("\nstream cancelled")
			break
		}
		if err != nil {
			return err
		}
		truth := labels[i]
		sig := signalSummary(sys.TestSamples[i].Frames)
		conf.add(det.Anomaly, truth)
		delaySum += det.DelayMs
		layerCounts[det.Layer]++
		streamed++
		marker := " "
		if det.Anomaly != truth {
			marker = "✗"
		}
		fmt.Printf("%-6d %-28s %-5d %-5d %-10.1f %-6v acc=%.3f f1=%.3f %s\n",
			n, sig, b2i(det.Anomaly), b2i(truth),
			det.DelayMs, det.Layer, conf.accuracy(), conf.f1(), marker)
		if pace > 0 && parallel.Sleep(ctx, pace) != nil {
			fmt.Println("\nstream cancelled")
			break
		}
	}
	if streamed == 0 {
		return nil
	}
	fmt.Printf("\nfinal: %d samples, accuracy %.4f, F1 %.4f, mean delay %.1f ms\n",
		streamed, conf.accuracy(), conf.f1(), delaySum/float64(streamed))
	fmt.Printf("layer shares: IoT %.2f / Edge %.2f / Cloud %.2f\n",
		float64(layerCounts[hec.LayerIoT])/float64(streamed),
		float64(layerCounts[hec.LayerEdge])/float64(streamed),
		float64(layerCounts[hec.LayerCloud])/float64(streamed))
	return nil
}

// streamOrder returns the indices to stream. With fraction in [0,1] it
// resamples (with replacement) to approximate the requested anomaly share,
// mimicking the GUI's normal/abnormal sliders; -1 keeps the natural split.
func streamOrder(labels []bool, fraction float64) []int {
	n := len(labels)
	if fraction < 0 || fraction > 1 {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order
	}
	var anomalies, normals []int
	for i, truth := range labels {
		if truth {
			anomalies = append(anomalies, i)
		} else {
			normals = append(normals, i)
		}
	}
	if len(anomalies) == 0 || len(normals) == 0 {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order
	}
	rng := rand.New(rand.NewSource(99))
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < fraction {
			order = append(order, anomalies[rng.Intn(len(anomalies))])
		} else {
			order = append(order, normals[rng.Intn(len(normals))])
		}
	}
	return order
}

func signalSummary(frames [][]float64) string {
	flat := make([]float64, 0, len(frames))
	for _, f := range frames {
		flat = append(flat, f[0])
	}
	min, max := mat.MinMaxVec(flat)
	return fmt.Sprintf("%7.2f /%7.2f /%7.2f", min, mat.MeanVec(flat), max)
}

type cumulative struct{ tp, fp, tn, fn int }

func (c *cumulative) add(pred, truth bool) {
	switch {
	case pred && truth:
		c.tp++
	case pred && !truth:
		c.fp++
	case !pred && !truth:
		c.tn++
	default:
		c.fn++
	}
}

func (c *cumulative) accuracy() float64 {
	t := c.tp + c.fp + c.tn + c.fn
	if t == 0 {
		return 0
	}
	return float64(c.tp+c.tn) / float64(t)
}

func (c *cumulative) f1() float64 {
	if c.tp == 0 {
		return 0
	}
	p := float64(c.tp) / float64(c.tp+c.fp)
	r := float64(c.tp) / float64(c.tp+c.fn)
	return 2 * p * r / (p + r)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
