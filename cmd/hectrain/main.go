// Command hectrain trains one model of the univariate suite and writes it —
// weights, fitted scorer and confidence rule — as a canonical HECM model
// artifact, reproducing the paper's offline training + freeze step. The
// artifact is what `hecnode -load` serves without retraining.
//
// Usage:
//
//	hectrain -tier cloud -epochs 40 -o ae-cloud.hecm
//	hecnode -layer cloud -load ae-cloud.hecm
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/autoencoder"
	"repro/internal/cluster"
	"repro/internal/dataset"
)

func main() {
	var (
		tierName = flag.String("tier", "iot", "model tier: iot | edge | cloud")
		epochs   = flag.Int("epochs", 25, "training epochs")
		weeks    = flag.Int("weeks", 104, "training weeks of synthetic power data")
		seed     = flag.Int64("seed", 1, "training seed")
		out      = flag.String("o", "", "output model artifact path (default ae-<tier>.hecm)")
		quantize = flag.Bool("fp16", false, "FP16-compress before saving (paper's IoT/edge deployment step)")
	)
	flag.Parse()
	if err := run(*tierName, *epochs, *weeks, *seed, *out, *quantize); err != nil {
		fmt.Fprintln(os.Stderr, "hectrain:", err)
		os.Exit(1)
	}
}

func run(tierName string, epochs, weeks int, seed int64, out string, quantize bool) error {
	var (
		tier     autoencoder.Tier
		snapTier string
	)
	switch strings.ToLower(tierName) {
	case "iot":
		tier, snapTier = autoencoder.TierIoT, "IoT"
	case "edge":
		tier, snapTier = autoencoder.TierEdge, "Edge"
	case "cloud":
		tier, snapTier = autoencoder.TierCloud, "Cloud"
	default:
		return fmt.Errorf("unknown -tier %q", tierName)
	}
	if out == "" {
		out = fmt.Sprintf("ae-%s.hecm", strings.ToLower(tierName))
	}

	cfg := dataset.DefaultPowerConfig()
	cfg.TrainWeeks = weeks
	cfg.Seed = seed
	ds, err := dataset.GeneratePower(cfg)
	if err != nil {
		return err
	}
	train := make([][]float64, len(ds.Train))
	for i, s := range ds.Train {
		train[i] = s.Values
	}

	rng := rand.New(rand.NewSource(seed))
	m, err := autoencoder.New(tier, dataset.ReadingsPerWeek, rng)
	if err != nil {
		return err
	}
	tc := autoencoder.DefaultTrainConfig()
	tc.Epochs = epochs
	fmt.Printf("training %s on %d weeks for %d epochs...\n", m.Name(), weeks, epochs)
	loss, err := m.Fit(train, tc, rng)
	if err != nil {
		return err
	}
	fmt.Printf("final training loss %.5f, threshold %.2f\n", loss, m.Scorer.Threshold)
	if quantize {
		worst := m.Quantize()
		fmt.Printf("FP16-compressed (worst rounding error %.2g)\n", worst)
	}

	snap, err := cluster.SnapshotDetector(m, snapTier, quantize)
	if err != nil {
		return err
	}
	if err := cluster.SaveModel(out, snap); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d parameters)\n", out, m.NumParams())
	return nil
}
