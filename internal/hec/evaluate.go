package hec

import (
	"fmt"
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/policy"
)

// Result aggregates a scheme's run over a sample set — one row of the
// paper's Table II plus the per-sample series behind the Fig. 3b demo
// panel. Add records the samples in order.
type Result struct {
	Scheme string
	// Confusion holds the detection counts; F1/Accuracy derive from it.
	Confusion metrics.Confusion
	// Delays aggregates per-sample end-to-end delays.
	Delays metrics.DelayStats
	// Reward accumulates per-sample rewards; Sum() is Table II's "Reward".
	Reward metrics.RewardSum
	// Alpha is the delay-cost weight used for the reward.
	Alpha float64

	// Per-sample series for the streaming result panel.
	Predictions []bool
	Truths      []bool
	DelaysMs    []float64
	Layers      []Layer
	// AccSeries and F1Series are the running metrics after each sample.
	AccSeries []float64
	F1Series  []float64
}

// LayerShares returns the fraction of samples resolved at each layer — the
// "actions determined by our policy network" panel of the demo.
func (r *Result) LayerShares() [NumLayers]float64 {
	var shares [NumLayers]float64
	if len(r.Layers) == 0 {
		return shares
	}
	for _, l := range r.Layers {
		shares[l]++
	}
	for i := range shares {
		shares[i] /= float64(len(r.Layers))
	}
	return shares
}

// Add records one sample: its prediction against the truth, its end-to-end
// delay and the layer whose verdict was kept.
func (r *Result) Add(pred, truth bool, delayMs float64, l Layer) {
	r.Confusion.Add(pred, truth)
	r.Delays.Add(delayMs)
	r.Reward.Add(policy.Reward(pred == truth, r.Alpha, delayMs))
	r.Predictions = append(r.Predictions, pred)
	r.Truths = append(r.Truths, truth)
	r.DelaysMs = append(r.DelaysMs, delayMs)
	r.Layers = append(r.Layers, l)
	r.AccSeries = append(r.AccSeries, r.Confusion.Accuracy())
	r.F1Series = append(r.F1Series, r.Confusion.F1())
}

// PolicyConfig parameterises adaptive-policy training.
type PolicyConfig struct {
	// Hidden is the policy network's hidden width (the paper uses 100).
	Hidden int
	// Alpha is the delay-cost weight of the reward.
	Alpha float64
	// Epochs over the policy-training samples.
	Epochs int
	// LR is the Adam learning rate.
	LR float64
	// Beta is the reinforcement-comparison baseline rate.
	Beta float64
}

// DefaultPolicyConfig returns the harness settings with the paper's
// architecture (100 hidden units).
func DefaultPolicyConfig(alpha float64) PolicyConfig {
	return PolicyConfig{Hidden: 100, Alpha: alpha, Epochs: 30, LR: 2e-3, Beta: 0.05}
}

// TrainPolicy trains the adaptive scheme's policy network by REINFORCE over
// the precomputed training outcomes: for every sample the sampled action's
// reward is the detection correctness at that layer minus the delay cost —
// exactly the paper's R(a, z_x) = accuracy(x) − C(a, x).
func TrainPolicy(pc *Precomputed, cfg PolicyConfig, rng *rand.Rand) (*policy.Network, error) {
	if pc.Contexts == nil {
		return nil, fmt.Errorf("hec: policy training needs contexts (pass an extractor to Precompute)")
	}
	if len(pc.Samples) == 0 {
		return nil, fmt.Errorf("hec: policy training on an empty sample set")
	}
	if cfg.Hidden <= 0 || cfg.Epochs <= 0 {
		return nil, fmt.Errorf("hec: invalid policy config %+v", cfg)
	}
	net, err := policy.NewNetwork(len(pc.Contexts[0]), cfg.Hidden, NumLayers, rng)
	if err != nil {
		return nil, err
	}
	tr, err := policy.NewTrainer(net, nn.NewAdam(cfg.LR), cfg.Beta)
	if err != nil {
		return nil, err
	}
	reward := func(i, action int) (float64, error) {
		if action >= NumLayers {
			return 0, fmt.Errorf("action %d out of range", action)
		}
		o := pc.Outcomes[i][Layer(action)]
		correct := o.Verdict.Anomaly == pc.Samples[i].Label
		return policy.Reward(correct, cfg.Alpha, pc.PolicyOverheadMs+o.E2EMs), nil
	}
	order := make([]int, len(pc.Samples))
	for i := range order {
		order[i] = i
	}
	for e := 0; e < cfg.Epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			i := i
			_, _, err := tr.Step(pc.Contexts[i], func(action int) (float64, error) {
				return reward(i, action)
			}, rng)
			if err != nil {
				return nil, fmt.Errorf("hec: policy training sample %d: %w", i, err)
			}
		}
	}
	return net, nil
}
