package policy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/nn"
)

func TestCostProperties(t *testing.T) {
	if Cost(5e-4, 0) != 0 {
		t.Fatal("zero delay must cost 0")
	}
	if Cost(5e-4, -10) != 0 {
		t.Fatal("negative delay must be clamped")
	}
	// Paper example: α=5e-4, cloud delay 504.5 ms → C ≈ 0.2014.
	if got := Cost(5e-4, 504.5); math.Abs(got-0.2014) > 1e-3 {
		t.Fatalf("Cost(5e-4, 504.5) = %g, want ≈0.2014", got)
	}
	// Monotone increasing, bounded by 1.
	prev := -1.0
	for _, d := range []float64{1, 10, 100, 1000, 1e6} {
		c := Cost(5e-4, d)
		if c <= prev || c >= 1 {
			t.Fatalf("Cost not monotone/bounded at %g: %g", d, c)
		}
		prev = c
	}
}

func TestRewardMatchesTableII(t *testing.T) {
	// Univariate Table II rows: reward_sum = (acc − C(delay))·52.
	rows := []struct {
		acc, delay, want float64
	}{
		{0.9368, 12.4, 48.39},   // IoT Device
		{0.9863, 257.43, 45.36}, // Edge
		{0.9946, 504.50, 41.24}, // Cloud
	}
	for _, r := range rows {
		per := r.acc - Cost(5e-4, r.delay)
		if got := per * 52; math.Abs(got-r.want) > 0.15 {
			t.Fatalf("summed reward for acc=%g delay=%g: %g, want ≈%g", r.acc, r.delay, got, r.want)
		}
	}
}

func TestRewardCorrectness(t *testing.T) {
	if got := Reward(true, 5e-4, 0); got != 1 {
		t.Fatalf("Reward(correct, no delay) = %g, want 1", got)
	}
	if got := Reward(false, 5e-4, 0); got != 0 {
		t.Fatalf("Reward(wrong, no delay) = %g, want 0", got)
	}
	if !(Reward(true, 5e-4, 100) < 1) {
		t.Fatal("delay must reduce reward")
	}
}

func TestNewNetworkValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewNetwork(0, 10, 3, rng); err == nil {
		t.Fatal("zero state dim must be rejected")
	}
	if _, err := NewNetwork(4, 10, 1, rng); err == nil {
		t.Fatal("single action must be rejected")
	}
	net, err := NewNetwork(4, 100, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Paper architecture: 100 hidden units, 3 outputs.
	want := 4*100 + 100 + 100*3 + 3
	if got := net.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	if net.Flops() != int64(2*4*100+2*100*3) {
		t.Fatalf("Flops = %d", net.Flops())
	}
}

func TestProbsIsDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net, err := NewNetwork(6, 20, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		z := make([]float64, 6)
		for i := range z {
			z[i] = r.NormFloat64() * 3
		}
		probs, err := net.Probs(z)
		if err != nil {
			return false
		}
		if len(probs) != 3 {
			return false
		}
		var sum float64
		for _, p := range probs {
			if p < 0 || p > 1 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleFollowsDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := NewNetwork(2, 10, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	z := []float64{0.5, -0.5}
	probs, err := net.Probs(z)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	const n = 20000
	for i := 0; i < n; i++ {
		a, err := net.Sample(z, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[a]++
	}
	for a, p := range probs {
		emp := float64(counts[a]) / n
		if math.Abs(emp-p) > 0.02 {
			t.Fatalf("action %d: empirical %g vs π %g", a, emp, p)
		}
	}
}

func TestGreedyMatchesArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net, err := NewNetwork(3, 8, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	z := []float64{1, 0, -1}
	probs, err := net.Probs(z)
	if err != nil {
		t.Fatal(err)
	}
	a, err := net.Greedy(z)
	if err != nil {
		t.Fatal(err)
	}
	if a != mat.ArgMax(probs) {
		t.Fatalf("Greedy = %d, argmax = %d", a, mat.ArgMax(probs))
	}
}

func TestNewTrainerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net, _ := NewNetwork(2, 8, 3, rng)
	if _, err := NewTrainer(nil, nn.NewAdam(1e-3), 0.1); err == nil {
		t.Fatal("nil network must be rejected")
	}
	if _, err := NewTrainer(net, nil, 0.1); err == nil {
		t.Fatal("nil optimiser must be rejected")
	}
	if _, err := NewTrainer(net, nn.NewAdam(1e-3), 0); err == nil {
		t.Fatal("zero beta must be rejected")
	}
}

// TestReinforceLearnsContextualBandit is the core convergence test: in a
// 2-context bandit where context decides which arm pays, the trained policy
// must learn the context→arm mapping.
func TestReinforceLearnsContextualBandit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net, err := NewNetwork(2, 16, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(net, nn.NewAdam(5e-3), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Context [1,0] pays on arm 0; [0,1] pays on arm 2; arm 1 pays a little
	// everywhere (a tempting but suboptimal default).
	rewardFor := func(ctx []float64, a int) float64 {
		switch {
		case ctx[0] == 1 && a == 0:
			return 1
		case ctx[1] == 1 && a == 2:
			return 1
		case a == 1:
			return 0.3
		default:
			return 0
		}
	}
	contexts := [][]float64{{1, 0}, {0, 1}}
	for i := 0; i < 4000; i++ {
		ctx := contexts[rng.Intn(2)]
		if _, _, err := tr.Step(ctx, func(a int) (float64, error) {
			return rewardFor(ctx, a), nil
		}, rng); err != nil {
			t.Fatal(err)
		}
	}
	a0, err := net.Greedy(contexts[0])
	if err != nil {
		t.Fatal(err)
	}
	a1, err := net.Greedy(contexts[1])
	if err != nil {
		t.Fatal(err)
	}
	if a0 != 0 || a1 != 2 {
		t.Fatalf("policy learned (%d, %d), want (0, 2)", a0, a1)
	}
	// Baseline should have converged near the optimal reward.
	if tr.Baseline() < 0.6 {
		t.Fatalf("baseline = %g, want near 1", tr.Baseline())
	}
}

func TestTrainerRejectsBadRewards(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net, _ := NewNetwork(2, 8, 3, rng)
	tr, _ := NewTrainer(net, nn.NewAdam(1e-3), 0.1)
	if _, _, err := tr.Step([]float64{1, 0}, func(int) (float64, error) {
		return math.NaN(), nil
	}, rng); err == nil {
		t.Fatal("NaN reward must be rejected")
	}
}

// TestReinforcementComparisonSpeedsConvergence is the ablation the paper
// motivates: with the baseline, REINFORCE should reach a good policy in
// fewer steps than without (measured by mean reward over the last window).
func TestReinforcementComparisonSpeedsConvergence(t *testing.T) {
	run := func(useBaseline bool) float64 {
		rng := rand.New(rand.NewSource(42))
		net, err := NewNetwork(2, 16, 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		beta := 1e-9 // effectively no baseline update
		if useBaseline {
			beta = 0.05
		}
		tr, err := NewTrainer(net, nn.NewAdam(2e-3), beta)
		if err != nil {
			t.Fatal(err)
		}
		if !useBaseline {
			tr.baseline = 0 // fixed zero baseline ⇒ plain REINFORCE
			tr.initialised = true
		}
		contexts := [][]float64{{1, 0}, {0, 1}}
		var recent float64
		const steps = 1500
		for i := 0; i < steps; i++ {
			ctx := contexts[rng.Intn(2)]
			_, r, err := tr.Step(ctx, func(a int) (float64, error) {
				// Rewards offset by +5 so the un-baselined gradient is noisy.
				if (ctx[0] == 1 && a == 0) || (ctx[1] == 1 && a == 2) {
					return 6, nil
				}
				return 5, nil
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
			if i >= steps-300 {
				recent += r
			}
		}
		return recent / 300
	}
	with := run(true)
	without := run(false)
	if with <= without {
		t.Fatalf("baseline did not help: with %g vs without %g", with, without)
	}
}
