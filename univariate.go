package repro

import (
	"context"
	"fmt"

	"repro/internal/autoencoder"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/hec"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/policy"
)

// UnivariateOptions configures a univariate build (see WithUnivariate).
type UnivariateOptions struct {
	// Data parameterises the synthetic power-demand dataset.
	Data dataset.PowerConfig
	// Train parameterises autoencoder training.
	Train autoencoder.TrainConfig
	// Policy parameterises adaptive-policy training; its Alpha is the
	// system's delay-cost weight.
	Policy hec.PolicyConfig
	// Topology is the HEC testbed model.
	Topology hec.Topology
	// Quantize applies quantized compression to the IoT and edge models
	// before deployment, as the paper does.
	Quantize bool
	// QuantMode selects the precision tier used when Quantize is on; the
	// zero value (nn.QuantNone) means the paper's FP16.
	QuantMode nn.QuantMode
	// Seed drives model initialisation and policy training.
	Seed int64
}

// DefaultUnivariateOptions returns the benchmark-harness configuration:
// paper-faithful splits (104 training weeks, 52 test weeks) and the paper's
// α = 5e-4.
func DefaultUnivariateOptions() UnivariateOptions {
	return UnivariateOptions{
		Data:     dataset.DefaultPowerConfig(),
		Train:    autoencoder.DefaultTrainConfig(),
		Policy:   hec.DefaultPolicyConfig(AlphaUnivariate),
		Topology: hec.DefaultTopology(),
		Quantize: true,
		Seed:     1,
	}
}

// fastUnivariateOptions is ProfileFast's univariate configuration: smaller
// splits and fewer epochs, same structure.
func fastUnivariateOptions() UnivariateOptions {
	opt := DefaultUnivariateOptions()
	opt.Data.TrainWeeks = 30
	opt.Data.TestWeeks = 26
	opt.Data.PolicyWeeks = 26
	opt.Train.Epochs = 15
	opt.Policy.Epochs = 12
	return opt
}

// buildUnivariate is the unified builder's univariate backend: it
// generates the power-demand dataset, trains the three autoencoder
// detectors, deploys them across the HEC topology, trains the adaptive
// policy on the policy split, and precomputes test-split detections.
// Cancelling ctx aborts the build at the next stage boundary (between tier
// trainings, or inside either precompute pass) with an error satisfying
// errors.Is(err, ctx.Err()).
func buildUnivariate(ctx context.Context, opt UnivariateOptions) (*System, error) {
	ds, err := dataset.GeneratePower(opt.Data)
	if err != nil {
		// Generation only fails on an invalid Data configuration, which is
		// caller input.
		return nil, badInputErr("building univariate system", fmt.Errorf("generating power data: %w", err))
	}

	trainValues := make([][]float64, len(ds.Train))
	for i, s := range ds.Train {
		trainValues[i] = s.Values
	}

	// The three tiers train concurrently: each draws from its own
	// label-derived RNG and touches only detectors[l], so the trained
	// weights are identical to a sequential build.
	var detectors [hec.NumLayers]anomalyDetector
	tiers := [hec.NumLayers]autoencoder.Tier{autoencoder.TierIoT, autoencoder.TierEdge, autoencoder.TierCloud}
	err = parallel.ForEachCtx(ctx, 0, len(tiers), func(l int) error {
		tier := tiers[l]
		rng := derivedRng(opt.Seed, "ae-"+tier.String())
		m, err := autoencoder.New(tier, dataset.ReadingsPerWeek, rng)
		if err != nil {
			return err
		}
		if _, err := m.Fit(trainValues, opt.Train, rng); err != nil {
			return fmt.Errorf("repro: training %s: %w", m.Name(), err)
		}
		// The paper compresses the models deployed on constrained hardware
		// (IoT and edge) before deployment — FP16 by default, int8 when
		// requested.
		if opt.Quantize && hec.Layer(l) != hec.LayerCloud {
			m.QuantizeMode(effectiveQuantMode(opt.QuantMode))
		}
		detectors[l] = m
		return nil
	})
	if err != nil {
		return nil, wrapErr("building univariate system", err)
	}

	dep, err := hec.NewDeployment(opt.Topology, toDetectorArray(detectors), false)
	if err != nil {
		return nil, wrapErr("building univariate system", err)
	}
	ext := features.UnivariateExtractor{}
	dep.PolicyOverheadMs = policyOverheadMs(opt.Topology, ext.Dim(), opt.Policy.Hidden)

	// Policy training (single-threaded REINFORCE over the policy split) and
	// test-split precomputation touch disjoint state, so they overlap.
	policySamples, _ := uniToSamples(ds.PolicyTrain)
	testSamples, testMeta := uniToSamples(ds.Test)
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
		pol, err = hec.TrainPolicy(policyPC, opt.Policy, derivedRng(opt.Seed, "policy-uni"))
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
		return nil, wrapErr("building univariate system", err)
	}

	return &System{
		Kind:        Univariate,
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

func uniToSamples(ss []dataset.UniSample) ([]hec.Sample, []SampleMeta) {
	samples := make([]hec.Sample, len(ss))
	meta := make([]SampleMeta, len(ss))
	for i, s := range ss {
		samples[i] = hec.Sample{Frames: UniSampleFrames(s), Label: s.Label}
		meta[i] = SampleMeta{Hardness: s.Hardness}
	}
	return samples, meta
}
