package policy

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
)

// The policy's per-sample forward and backward, written out as scalar loops
// in the order nn's per-layer wrappers ran them before the network moved onto
// the batch engine, and the allocating softmax it used then: the reference
// Probs, Greedy, Sample and Trainer.Step are pinned against bit for bit.

// softmax returns the softmax of x computed with the max-subtraction trick.
func softmax(x []float64) []float64 {
	if len(x) == 0 {
		return nil
	}
	_, max := mat.MinMaxVec(x)
	out := make([]float64, len(x))
	var sum float64
	for i, v := range x {
		e := math.Exp(v - max)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// mulVec returns m·x, accumulating each row in ascending column order.
func mulVec(m *mat.Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		var s float64
		for j, v := range m.Row(i) {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// mulVecT returns mᵀ·x, accumulating rows in ascending order and skipping
// zero coefficients.
func mulVecT(m *mat.Matrix, x []float64) []float64 {
	out := make([]float64, m.Cols)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		for j, v := range m.Row(i) {
			out[j] += xv * v
		}
	}
	return out
}

// refForward runs p on z and returns the hidden pre-activation, the hidden
// activation and the logits.
func refForward(p *Network, z []float64) (pre, h, logits []float64) {
	ps := p.Params()
	pre = mulVec(ps[0].Value, z)
	for i, b := range ps[1].Value.Data {
		pre[i] += b
	}
	h = make([]float64, len(pre))
	for i, v := range pre {
		h[i] = nn.ActReLU.Apply(v)
	}
	logits = mulVec(ps[2].Value, h)
	for i, b := range ps[3].Value.Data {
		logits[i] += b
	}
	return pre, h, logits
}

// refProbs is π_θ(·|z).
func refProbs(p *Network, z []float64) []float64 {
	_, _, logits := refForward(p, z)
	return softmax(logits)
}

// refSample draws an action from π_θ(·|z) with one rng.Float64.
func refSample(p *Network, z []float64, rng *rand.Rand) int {
	probs := refProbs(p, z)
	r := rng.Float64()
	var cum float64
	for a, pr := range probs {
		cum += pr
		if r < cum {
			return a
		}
	}
	return len(probs) - 1
}

// refReinforce accumulates (π − onehot_a)·A backpropagated through p into
// its parameter gradients.
func refReinforce(p *Network, z []float64, action int, advantage float64) {
	pre, h, logits := refForward(p, z)
	probs := softmax(logits)
	g := make([]float64, p.K)
	for a := range g {
		v := probs[a]
		if a == action {
			v -= 1
		}
		g[a] = v * advantage
	}
	ps := p.Params()
	_ = ps[2].Grad.OuterAdd(g, h)
	for i, v := range g {
		ps[3].Grad.Data[i] += v
	}
	dh := mulVecT(ps[2].Value, g)
	for i, v := range dh {
		dh[i] = v * nn.ActReLU.Deriv(pre[i], h[i])
	}
	_ = ps[0].Grad.OuterAdd(dh, z)
	for i, v := range dh {
		ps[1].Grad.Data[i] += v
	}
}

// refStep is Trainer.Step through the reference.
func refStep(t *Trainer, z []float64, reward func(int) float64, rng *rand.Rand) (int, float64, error) {
	action := refSample(t.Net, z, rng)
	r := reward(action)
	if !t.initialised {
		t.baseline = r
		t.initialised = true
	}
	refReinforce(t.Net, z, action, r-t.baseline)
	if err := t.Opt.Step(t.Net.Params()); err != nil {
		return 0, 0, err
	}
	t.baseline += t.Beta * (r - t.baseline)
	return action, r, nil
}

// TestProbsMatchesScalarReference pins the batch-of-one policy to the scalar
// reference bit for bit: Probs, Greedy and Sample over random contexts up to
// magnitude 100 (where the softmax saturates), and the weights 50 training
// steps leave.
func TestProbsMatchesScalarReference(t *testing.T) {
	for _, shape := range []struct{ state, hidden, k int }{{28, 100, 3}, {7, 33, 5}} {
		t.Run(fmt.Sprintf("%dx%dx%d", shape.state, shape.hidden, shape.k), func(t *testing.T) {
			net, err := NewNetwork(shape.state, shape.hidden, shape.k, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			z := make([]float64, shape.state)
			for i := 0; i < 1200; i++ {
				scale := []float64{0.5, 3, 30, 100}[i%4]
				for j := range z {
					z[j] = rng.NormFloat64() * scale
				}
				want := refProbs(net, z)
				got, err := net.Probs(z)
				if err != nil {
					t.Fatal(err)
				}
				for a, v := range want {
					if math.Float64bits(got[a]) != math.Float64bits(v) {
						t.Fatalf("context %d (scale %g): π[%d] = %g, reference %g", i, scale, a, got[a], v)
					}
				}
				if a, err := net.Greedy(z); err != nil || a != mat.ArgMax(want) {
					t.Fatalf("context %d: Greedy = %d, %v; reference %d", i, a, err, mat.ArgMax(want))
				}
				seed := rng.Int63()
				a, err := net.Sample(z, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				if ref := refSample(net, z, rand.New(rand.NewSource(seed))); a != ref {
					t.Fatalf("context %d: Sample = %d, reference %d", i, a, ref)
				}
			}

			train := func(step func(*Trainer, []float64, func(int) float64, *rand.Rand) (int, float64, error)) (*Network, *Trainer, []int) {
				net, err := NewNetwork(shape.state, shape.hidden, shape.k, rand.New(rand.NewSource(3)))
				if err != nil {
					t.Fatal(err)
				}
				tr, err := NewTrainer(net, nn.NewAdam(5e-3), 0.05)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(4))
				var actions []int
				z := make([]float64, shape.state)
				for i := 0; i < 50; i++ {
					for j := range z {
						z[j] = rng.NormFloat64() * 3
					}
					a, _, err := step(tr, z, func(a int) float64 { return float64((a+i)%shape.k) * 0.4 }, rng)
					if err != nil {
						t.Fatal(err)
					}
					actions = append(actions, a)
				}
				return net, tr, actions
			}
			step := func(tr *Trainer, z []float64, reward func(int) float64, rng *rand.Rand) (int, float64, error) {
				return tr.Step(z, func(a int) (float64, error) { return reward(a), nil }, rng)
			}
			netA, trA, actsA := train(step)
			netB, trB, actsB := train(refStep)
			for i := range actsA {
				if actsA[i] != actsB[i] {
					t.Fatalf("step %d: Step sampled %d, reference %d", i, actsA[i], actsB[i])
				}
			}
			pa, pb := netA.Params(), netB.Params()
			for i := range pa {
				for j, v := range pa[i].Value.Data {
					if math.Float64bits(v) != math.Float64bits(pb[i].Value.Data[j]) {
						t.Fatalf("param %s[%d] after 50 steps: %g, reference %g", pa[i].Name, j, v, pb[i].Value.Data[j])
					}
				}
			}
			if math.Float64bits(trA.Baseline()) != math.Float64bits(trB.Baseline()) {
				t.Fatalf("baseline %g, reference %g", trA.Baseline(), trB.Baseline())
			}
		})
	}
}

// TestDecisionsAreSafeConcurrently runs Probs, Greedy and Sample on one
// network from several goroutines, which share its scratch pool; each
// must still read the reference's bits (meaningful under -race).
func TestDecisionsAreSafeConcurrently(t *testing.T) {
	net, err := NewNetwork(28, 100, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	zs := make([][]float64, 64)
	want := make([][]float64, len(zs))
	for i := range zs {
		zs[i] = make([]float64, 28)
		for j := range zs[i] {
			zs[i][j] = rng.NormFloat64() * 3
		}
		want[i] = refProbs(net, zs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for rep := 0; rep < 4; rep++ {
				for i, z := range zs {
					probs, err := net.Probs(z)
					if err != nil {
						t.Error(err)
						return
					}
					for a, v := range want[i] {
						if math.Float64bits(probs[a]) != math.Float64bits(v) {
							t.Errorf("goroutine %d context %d: π[%d] = %g, reference %g", g, i, a, probs[a], v)
							return
						}
					}
					if a, err := net.Greedy(z); err != nil || a != mat.ArgMax(want[i]) {
						t.Errorf("goroutine %d context %d: Greedy = %d, %v", g, i, a, err)
						return
					}
					if _, err := net.Sample(z, rng); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// trainerStepAllocs is what a warm Trainer.Step allocates: the eight of
// Network.Params (the parameter list and the views the optimiser updates
// through) and the four of repacking the two weight matrices the update
// invalidated. The forward and backward passes allocate nothing.
const trainerStepAllocs = 12

// TestPolicyDecisionAllocs pins a decision's allocations: Probs allocates
// only the distribution it returns, Greedy nothing, and a warm Trainer.Step
// trainerStepAllocs.
func TestPolicyDecisionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	net, err := NewNetwork(28, 100, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(net, nn.NewAdam(1e-3), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, 28)
	for i := range z {
		z[i] = float64(i%5) - 2
	}
	rng := rand.New(rand.NewSource(2))
	reward := func(a int) (float64, error) { return float64(a) * 0.5, nil }
	if _, _, err := tr.Step(z, reward, rng); err != nil { // warm layer and optimiser state
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want float64
		fn   func() error
	}{
		{"Probs", 1, func() error { _, err := net.Probs(z); return err }},
		{"Greedy", 0, func() error { _, err := net.Greedy(z); return err }},
		{"Trainer.Step", trainerStepAllocs, func() error { _, _, err := tr.Step(z, reward, rng); return err }},
	} {
		if got := testing.AllocsPerRun(50, func() {
			if err := c.fn(); err != nil {
				t.Fatal(err)
			}
		}); got != c.want {
			t.Errorf("%s allocates %.1f objects, want %.0f", c.name, got, c.want)
		}
	}
}
