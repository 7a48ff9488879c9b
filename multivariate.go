package repro

import (
	"context"
	"fmt"

	"repro/internal/anomaly"
	"repro/internal/dataset"
	"repro/internal/hec"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/policy"
	"repro/internal/seq2seq"
)

// anomalyDetector is a local alias keeping builder signatures readable.
type anomalyDetector = anomaly.Detector

// MultivariateOptions configures a multivariate build (see WithMultivariate).
type MultivariateOptions struct {
	// Data parameterises the synthetic MHEALTH dataset.
	Data dataset.MHealthConfig
	// Sizing controls the seq2seq suite's hidden widths.
	Sizing seq2seq.Sizing
	// Train parameterises seq2seq training.
	Train seq2seq.TrainConfig
	// Policy parameterises adaptive-policy training.
	Policy hec.PolicyConfig
	// Topology is the HEC testbed model.
	Topology hec.Topology
	// Quantize applies quantized compression to the IoT and edge models
	// before deployment.
	Quantize bool
	// QuantMode selects the precision tier used when Quantize is on; the
	// zero value (nn.QuantNone) means the paper's FP16.
	QuantMode nn.QuantMode
	// MaxTrainWindows caps the windows used per training epoch (0 = all),
	// trading training data for build time.
	MaxTrainWindows int
	// Seed drives model initialisation and policy training.
	Seed int64
}

// DefaultMultivariateOptions returns the benchmark-harness configuration:
// paper-faithful splits (10 subjects, 70/30+5% splits, ~520 test windows)
// and the paper's α = 3.5e-4.
func DefaultMultivariateOptions() MultivariateOptions {
	return MultivariateOptions{
		Data:     dataset.DefaultMHealthConfig(),
		Sizing:   seq2seq.DefaultSizing(),
		Train:    seq2seq.DefaultTrainConfig(),
		Policy:   hec.DefaultPolicyConfig(AlphaMultivariate),
		Topology: hec.DefaultTopology(),
		Quantize: true,
		Seed:     2,
	}
}

// fastMultivariateOptions is ProfileFast's multivariate configuration:
// fewer subjects, shorter recordings, smaller models and fewer epochs, same
// structure.
func fastMultivariateOptions() MultivariateOptions {
	opt := DefaultMultivariateOptions()
	opt.Data.Subjects = 2
	opt.Data.WalkSeconds = 40
	opt.Data.OtherSeconds = 10
	opt.Sizing.BaseHidden = 8
	opt.Train.Epochs = 3
	opt.Policy.Epochs = 10
	opt.MaxTrainWindows = 60
	return opt
}

// buildMultivariate is the unified builder's multivariate backend: it
// generates the MHEALTH-like dataset, trains the three seq2seq detectors,
// deploys them across the HEC topology, trains the adaptive policy, and
// precomputes test-split detections; see buildUnivariate for the ctx
// contract.
func buildMultivariate(ctx context.Context, opt MultivariateOptions) (*System, error) {
	ds, err := dataset.GenerateMHealth(opt.Data)
	if err != nil {
		// Generation only fails on an invalid Data configuration, which is
		// caller input.
		return nil, badInputErr("building multivariate system", fmt.Errorf("generating mhealth data: %w", err))
	}

	trainWindows := make([][][]float64, len(ds.Train))
	for i, s := range ds.Train {
		trainWindows[i] = s.Frames
	}
	if opt.MaxTrainWindows > 0 && len(trainWindows) > opt.MaxTrainWindows {
		trainWindows = trainWindows[:opt.MaxTrainWindows]
	}

	// The three tiers train concurrently (the dominant cost of a
	// multivariate build): each draws from its own label-derived RNG and
	// touches only detectors[l], so the trained weights are identical to a
	// sequential build.
	var detectors [hec.NumLayers]anomalyDetector
	var iotModel *seq2seq.Model
	tiers := [hec.NumLayers]seq2seq.Tier{seq2seq.TierIoT, seq2seq.TierEdge, seq2seq.TierCloud}
	err = parallel.ForEachCtx(ctx, 0, len(tiers), func(l int) error {
		tier := tiers[l]
		rng := derivedRng(opt.Seed, "seq2seq-"+tier.String())
		m, err := seq2seq.New(tier, opt.Sizing, rng)
		if err != nil {
			return err
		}
		if _, err := m.Fit(trainWindows, opt.Train, rng); err != nil {
			return fmt.Errorf("repro: training %s: %w", m.Name(), err)
		}
		if opt.Quantize && hec.Layer(l) != hec.LayerCloud {
			m.QuantizeMode(effectiveQuantMode(opt.QuantMode))
		}
		detectors[l] = m
		if hec.Layer(l) == hec.LayerIoT {
			iotModel = m
		}
		return nil
	})
	if err != nil {
		return nil, wrapErr("building multivariate system", err)
	}

	dep, err := hec.NewDeployment(opt.Topology, toDetectorArray(detectors), true)
	if err != nil {
		return nil, wrapErr("building multivariate system", err)
	}
	// The multivariate context is the IoT model's encoder state: it is
	// produced on-device as a by-product of local processing. The model is
	// its own extractor, so whoever holds it as both (a Session's device,
	// Precompute) encodes a window once for the context and the detection.
	ext := iotModel
	dep.PolicyOverheadMs = policyOverheadMs(opt.Topology, ext.Dim(), opt.Policy.Hidden)

	// Policy training (single-threaded REINFORCE over the policy split) and
	// test-split precomputation touch disjoint state, so they overlap.
	policySamples, _ := multiToSamples(ds.PolicyTrain)
	testSamples, testMeta := multiToSamples(ds.Test)
	var (
		pol    *policy.Network
		testPC *hec.Precomputed
		g      parallel.Group
	)
	g.Go(func() error {
		policyPC, err := hec.Precompute(ctx, dep, ext, policySamples)
		if err != nil {
			return fmt.Errorf("repro: precomputing policy split: %w", err)
		}
		pol, err = hec.TrainPolicy(policyPC, opt.Policy, derivedRng(opt.Seed, "policy-multi"))
		if err != nil {
			return fmt.Errorf("repro: training policy: %w", err)
		}
		return nil
	})
	g.Go(func() error {
		var err error
		testPC, err = hec.Precompute(ctx, dep, ext, testSamples)
		if err != nil {
			return fmt.Errorf("repro: precomputing test split: %w", err)
		}
		return nil
	})
	if err := g.Wait(); err != nil {
		return nil, wrapErr("building multivariate system", err)
	}

	return &System{
		Kind:        Multivariate,
		Seed:        opt.Seed,
		Deployment:  dep,
		Policy:      pol,
		Extractor:   ext,
		Alpha:       opt.Policy.Alpha,
		TestSamples: testSamples,
		TestMeta:    testMeta,
		testPC:      testPC,
	}, nil
}

func multiToSamples(ss []dataset.MultiSample) ([]hec.Sample, []SampleMeta) {
	samples := make([]hec.Sample, len(ss))
	meta := make([]SampleMeta, len(ss))
	for i, s := range ss {
		samples[i] = hec.Sample{Frames: s.Frames, Label: s.Label}
		meta[i] = SampleMeta{Hardness: s.Activity.Hardness(), Activity: s.Activity}
	}
	return samples, meta
}

// toDetectorArray converts the local alias array to the hec parameter type.
func toDetectorArray(ds [hec.NumLayers]anomalyDetector) [hec.NumLayers]anomaly.Detector {
	var out [hec.NumLayers]anomaly.Detector
	for i, d := range ds {
		out[i] = d
	}
	return out
}

// policyOverheadMs estimates the cost of one policy-network forward pass on
// the IoT device (context extraction is a by-product of local processing
// and effectively free).
func policyOverheadMs(top hec.Topology, stateDim, hidden int) float64 {
	flops := float64(2*stateDim*hidden + 2*hidden*hec.NumLayers)
	return flops / top.Devices[hec.LayerIoT].DenseFlopsPerMs
}
