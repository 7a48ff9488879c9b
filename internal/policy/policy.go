// Package policy implements the paper's adaptive model-selection scheme: a
// contextual bandit characterised by a single-step MDP and solved with a
// REINFORCE policy network. The network maps a contextual state z_x to a
// categorical distribution π_θ(a|z_x) over the K HEC layers; training
// minimises the negative expected reward with a reinforcement-comparison
// baseline for variance reduction, and the reward trades detection
// accuracy against an end-to-end-delay cost C(a,x) = α·t/(1+α·t).
package policy

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/mat"
	"repro/internal/nn"
)

// Cost maps an end-to-end detection delay (milliseconds) to an equivalent
// accuracy penalty in [0, 1) — the paper's equation (1). alpha tunes how
// aggressively delay is punished (5e-4 for the univariate dataset, 3.5e-4
// for the multivariate one).
func Cost(alpha, delayMs float64) float64 {
	if delayMs < 0 {
		delayMs = 0
	}
	at := alpha * delayMs
	return at / (1 + at)
}

// Reward is the paper's reward function R(a, z_x) = accuracy(x) − C(a, x),
// with accuracy ∈ {0, 1} for a single detection (correct or not).
func Reward(correct bool, alpha, delayMs float64) float64 {
	acc := 0.0
	if correct {
		acc = 1
	}
	return acc - Cost(alpha, delayMs)
}

// Network is the policy network: a single hidden layer (the paper uses 100
// units) with ReLU, and a K-way softmax output over HEC layers. Probs, Greedy
// and Sample run the network as a batch of one on pooled scratch and are
// safe for concurrent use; training is not.
type Network struct {
	net *nn.Sequential
	// K is the action count (HEC layer count).
	K int
	// StateDim is the context width.
	StateDim int

	// scratch pools the *decideScratch of Probs, Greedy and Sample.
	scratch sync.Pool
	// x and grad are reinforce's 1×StateDim context view and 1×K logit
	// gradient.
	x, grad mat.Matrix
}

// decideScratch is one decision's workspace: the context viewed as a batch
// of one and the activation buffers, the last of which ends up holding
// π_θ(·|z).
type decideScratch struct {
	x  mat.Matrix
	ws nn.BatchScratch
}

// NewNetwork builds a policy network mapping stateDim-wide contexts to K
// actions through one hidden layer.
func NewNetwork(stateDim, hidden, k int, rng *rand.Rand) (*Network, error) {
	if stateDim <= 0 || hidden <= 0 || k < 2 {
		return nil, fmt.Errorf("policy: invalid network shape state=%d hidden=%d k=%d", stateDim, hidden, k)
	}
	return &Network{
		net: nn.NewSequential(
			nn.NewDense(stateDim, hidden, rng),
			nn.NewActivation(nn.ActReLU),
			nn.NewDense(hidden, k, rng),
		),
		K:        k,
		StateDim: stateDim,
		scratch:  sync.Pool{New: func() any { return new(decideScratch) }},
	}, nil
}

// decide computes π_θ(·|z) into s and returns it; the slice belongs to s.
func (p *Network) decide(s *decideScratch, z []float64) ([]float64, error) {
	s.x = mat.Matrix{Rows: 1, Cols: len(z), Data: z}
	logits, err := p.net.InferBatch(&s.ws, &s.x)
	s.x.Data = nil // the scratch outlives the call; the caller's z must not
	if err != nil {
		return nil, fmt.Errorf("policy forward: %w", err)
	}
	if err := mat.SoftmaxInto(logits.Data, logits.Data); err != nil {
		return nil, err
	}
	return logits.Data, nil
}

// Probs returns π_θ(·|z): the softmax action distribution for context z, in
// a slice the caller owns.
func (p *Network) Probs(z []float64) ([]float64, error) {
	s := p.scratch.Get().(*decideScratch)
	defer p.scratch.Put(s)
	probs, err := p.decide(s, z)
	if err != nil {
		return nil, err
	}
	return mat.CloneVec(probs), nil
}

// Greedy returns argmax_a π_θ(a|z), the deployment-time action (the paper
// selects |a| = argmax_k s_k).
func (p *Network) Greedy(z []float64) (int, error) {
	s := p.scratch.Get().(*decideScratch)
	defer p.scratch.Put(s)
	probs, err := p.decide(s, z)
	if err != nil {
		return 0, err
	}
	return mat.ArgMax(probs), nil
}

// Sample draws an action from π_θ(·|z) for exploration during training.
func (p *Network) Sample(z []float64, rng *rand.Rand) (int, error) {
	s := p.scratch.Get().(*decideScratch)
	defer p.scratch.Put(s)
	probs, err := p.decide(s, z)
	if err != nil {
		return 0, err
	}
	r := rng.Float64()
	var cum float64
	for a, pr := range probs {
		cum += pr
		if r < cum {
			return a, nil
		}
	}
	return len(probs) - 1, nil // numerical tail
}

// reinforce accumulates the policy gradient for one (z, a, advantage)
// triple: ∂(−log π(a|z)·A)/∂logits = (π − onehot_a)·A, backpropagated
// through the network as a batch of one.
func (p *Network) reinforce(z []float64, action int, advantage float64) error {
	if action < 0 || action >= p.K {
		return fmt.Errorf("policy: action %d out of range %d", action, p.K)
	}
	p.x = mat.Matrix{Rows: 1, Cols: len(z), Data: z}
	logits, err := p.net.ForwardBatch(&p.x)
	p.x.Data = nil
	if err != nil {
		return err
	}
	grad := p.grad.Reshape(1, p.K)
	if err := mat.SoftmaxInto(grad.Data, logits.Data); err != nil {
		return err
	}
	for a, g := range grad.Data {
		if a == action {
			g -= 1
		}
		grad.Data[a] = g * advantage
	}
	_, err = p.net.BackwardBatch(grad)
	return err
}

// NumParams returns the trainable-parameter count.
func (p *Network) NumParams() int { return p.net.NumParams() }

// Flops estimates one forward pass's MAC FLOPs (the policy must be cheap
// enough for the IoT device; this feeds the HEC compute model).
func (p *Network) Flops() int64 { return p.net.FlopsDense() }

// Params exposes the parameters for snapshotting.
func (p *Network) Params() []nn.Param { return p.net.Params() }

// Trainer runs REINFORCE with a reinforcement-comparison baseline: the
// advantage of a sampled action is R − r̄ where r̄ is an exponential moving
// average of observed rewards (Sutton & Barto's "reinforcement comparison",
// the paper's variance-reduction choice).
type Trainer struct {
	Net *Network
	// Opt updates the network; Adam with lr ≈ 1e-3 works well.
	Opt nn.Optimizer
	// Beta is the baseline's moving-average rate.
	Beta float64

	baseline    float64
	initialised bool
}

// NewTrainer returns a REINFORCE trainer with baseline rate beta.
func NewTrainer(net *Network, opt nn.Optimizer, beta float64) (*Trainer, error) {
	if net == nil || opt == nil {
		return nil, fmt.Errorf("policy: trainer needs a network and an optimiser")
	}
	if beta <= 0 || beta > 1 {
		return nil, fmt.Errorf("policy: baseline rate %g out of (0,1]", beta)
	}
	return &Trainer{Net: net, Opt: opt, Beta: beta}, nil
}

// Baseline returns the current reinforcement-comparison baseline r̄.
func (t *Trainer) Baseline() float64 { return t.baseline }

// Step samples an action for context z, queries rewardFn for its reward,
// applies one REINFORCE update with the baselined advantage, and returns
// the action and reward. rewardFn is called exactly once, with the sampled
// action — in the HEC system it runs the detector at that layer and scores
// the outcome.
func (t *Trainer) Step(z []float64, rewardFn func(action int) (float64, error), rng *rand.Rand) (int, float64, error) {
	action, err := t.Net.Sample(z, rng)
	if err != nil {
		return 0, 0, err
	}
	reward, err := rewardFn(action)
	if err != nil {
		return 0, 0, fmt.Errorf("policy: reward for action %d: %w", action, err)
	}
	if math.IsNaN(reward) || math.IsInf(reward, 0) {
		return 0, 0, fmt.Errorf("policy: non-finite reward %g", reward)
	}
	if !t.initialised {
		t.baseline = reward
		t.initialised = true
	}
	advantage := reward - t.baseline
	if err := t.Net.reinforce(z, action, advantage); err != nil {
		return 0, 0, err
	}
	if err := t.Opt.Step(t.Net.Params()); err != nil {
		return 0, 0, err
	}
	t.baseline += t.Beta * (reward - t.baseline)
	return action, reward, nil
}
