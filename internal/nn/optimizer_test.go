package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// trainToy fits net to a fixed nonlinear mapping and returns initial and
// final loss, exercising the full forward/backward/step loop.
func trainToy(t *testing.T, opt Optimizer, steps int) (first, last float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	net := NewSequential(
		NewDense(2, 16, rng),
		NewActivation(ActTanh),
		NewDense(16, 1, rng),
	)
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := [][]float64{{0}, {1}, {1}, {0}} // XOR
	epochLoss := func() float64 {
		var total float64
		for i, x := range inputs {
			out, err := net.Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			l, _, err := MSELoss(out, targets[i])
			if err != nil {
				t.Fatal(err)
			}
			total += l
		}
		return total
	}
	first = epochLoss()
	for s := 0; s < steps; s++ {
		i := s % len(inputs)
		out, err := net.ForwardBatch(rowView(inputs[i]))
		if err != nil {
			t.Fatal(err)
		}
		_, g, err := MSELoss(out.Data, targets[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.BackwardBatch(rowView(g)); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(net.Params()); err != nil {
			t.Fatal(err)
		}
	}
	return first, epochLoss()
}

func TestSGDLearnsXOR(t *testing.T) {
	first, last := trainToy(t, &SGD{LR: 0.3, Momentum: 0.9}, 4000)
	if last >= first/10 {
		t.Fatalf("SGD did not learn: loss %g -> %g", first, last)
	}
}

func TestRMSPropLearnsXOR(t *testing.T) {
	first, last := trainToy(t, NewRMSProp(0.01), 4000)
	if last >= first/10 {
		t.Fatalf("RMSProp did not learn: loss %g -> %g", first, last)
	}
}

func TestAdamLearnsXOR(t *testing.T) {
	first, last := trainToy(t, NewAdam(0.01), 4000)
	if last >= first/10 {
		t.Fatalf("Adam did not learn: loss %g -> %g", first, last)
	}
}

func TestOptimizerRejectsBadLR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewSequential(NewDense(1, 1, rng))
	for _, opt := range []Optimizer{NewSGD(0), NewRMSProp(-1), NewAdam(0)} {
		if err := opt.Step(net.Params()); err == nil {
			t.Fatalf("%T accepted non-positive learning rate", opt)
		}
	}
}

func TestStepZeroesGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewSequential(NewDense(2, 2, rng))
	out, err := net.ForwardBatch(rowView([]float64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	_, g, _ := MSELoss(out.Data, []float64{0, 0})
	if _, err := net.BackwardBatch(rowView(g)); err != nil {
		t.Fatal(err)
	}
	if err := NewAdam(0.001).Step(net.Params()); err != nil {
		t.Fatal(err)
	}
	for _, p := range net.Params() {
		if p.Grad.MaxAbs() != 0 {
			t.Fatal("Step must zero gradients")
		}
	}
}

func TestWeightDecayShrinksWeightsNotBiases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewSequential(NewDense(3, 3, rng))
	d := net.Layers[0].(*Dense)
	for i := range d.B {
		d.B[i] = 1
	}
	w0 := d.W.Clone()
	opt := &SGD{LR: 0.1, WeightDecay: 0.5}
	// No data gradient: only decay acts.
	if err := opt.Step(net.Params()); err != nil {
		t.Fatal(err)
	}
	for i, w := range d.W.Data {
		want := w0.Data[i] * (1 - 0.1*0.5)
		if math.Abs(w-want) > 1e-12 {
			t.Fatalf("weight %d = %g, want %g", i, w, want)
		}
	}
	for _, b := range d.B {
		if b != 1 {
			t.Fatal("bias must not be decayed")
		}
	}
}

func TestClipNormBoundsUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewSequential(NewDense(2, 2, rng))
	params := net.Params()
	// Inject a huge gradient.
	for _, p := range params {
		p.Grad.Fill(1e6)
	}
	opt := &SGD{LR: 1, ClipNorm: 1}
	w0 := params[0].Value.Clone()
	if err := opt.Step(params); err != nil {
		t.Fatal(err)
	}
	var moved float64
	for i, w := range params[0].Value.Data {
		moved += (w - w0.Data[i]) * (w - w0.Data[i])
	}
	if math.Sqrt(moved) > 1.0001 {
		t.Fatalf("clipped update moved weights by %g, want ≤ 1", math.Sqrt(moved))
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewSequential(NewDense(3, 4, rng), NewActivation(ActReLU), NewDense(4, 2, rng))
	snap := TakeSnapshot(net.Params())

	// Restore into a fresh identical architecture; outputs must match.
	rng2 := rand.New(rand.NewSource(999))
	net2 := NewSequential(NewDense(3, 4, rng2), NewActivation(ActReLU), NewDense(4, 2, rng2))
	if err := snap.Restore(net2.Params()); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, -0.5, 2.3}
	o1, err := net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := net2.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("restored net differs: %v vs %v", o1, o2)
		}
	}
}

func TestSnapshotRestoreShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	snap := TakeSnapshot(NewSequential(NewDense(3, 4, rng)).Params())
	other := NewSequential(NewDense(3, 5, rng))
	if err := snap.Restore(other.Params()); err == nil {
		t.Fatal("Restore must reject shape mismatch")
	}
	small := NewSequential(NewActivation(ActReLU))
	if err := snap.Restore(small.Params()); err == nil {
		t.Fatal("Restore must reject count mismatch")
	}
}

func TestFloat16KnownValues(t *testing.T) {
	cases := []struct {
		f    float64
		bits uint16
	}{
		{0, 0x0000},
		{1, 0x3C00},
		{-2, 0xC000},
		{0.5, 0x3800},
		{65504, 0x7BFF},                 // max finite binary16
		{math.Inf(1), 0x7C00},           // +inf
		{math.Inf(-1), 0xFC00},          // -inf
		{6.103515625e-05, 0x0400},       // smallest normal
		{5.960464477539063e-08, 0x0001}, // smallest subnormal
	}
	for _, c := range cases {
		if got := mat.Float16Bits(c.f); got != c.bits {
			t.Errorf("Float16Bits(%g) = %#04x, want %#04x", c.f, got, c.bits)
		}
		if back := mat.Float16From(c.bits); back != c.f {
			t.Errorf("Float16From(%#04x) = %g, want %g", c.bits, back, c.f)
		}
	}
	if !math.IsNaN(mat.Float16From(mat.Float16Bits(math.NaN()))) {
		t.Error("NaN must round-trip to NaN")
	}
	if mat.Float16Bits(1e6) != 0x7C00 {
		t.Error("overflow must produce +inf")
	}
	if mat.Float16Bits(1e-12) != 0 {
		t.Error("deep underflow must produce +0")
	}
}

// Property: FP16 quantisation is idempotent and its relative error is below
// 2^-11 for values in the normal range.
func TestQuickFP16Quantisation(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		// Map arbitrary inputs into the binary16 normal range.
		v = math.Mod(v, 60000)
		if math.Abs(v) < 1e-4 {
			v += 1 // avoid the subnormal range for the relative-error claim
		}
		q := mat.QuantizeFP16(v)
		if mat.QuantizeFP16(q) != q {
			return false // idempotence
		}
		return math.Abs(q-v) <= math.Abs(v)/2048+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeParamsFP16PreservesInference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := NewSequential(NewDense(8, 16, rng), NewActivation(ActSigmoid), NewDense(16, 8, rng))
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	before, err := net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	worst := QuantizeParams(net.Params(), QuantFP16)
	if worst > 0.01 {
		t.Fatalf("worst FP16 rounding error %g unexpectedly large", worst)
	}
	after, err := net.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if math.Abs(before[i]-after[i]) > 0.05 {
			t.Fatalf("output %d moved %g after quantisation", i, math.Abs(before[i]-after[i]))
		}
	}
}

// refApplyDecay, refClipGrad and refStep are the reference optimiser step
// that the fused one must reproduce: weight decay over every tensor, then
// the global norm and the clip scale over every tensor, then the per-tensor
// update, then Grad.Zero — each a pass of its own.
func refApplyDecay(params []Param, lambda float64) {
	if lambda == 0 {
		return
	}
	for _, p := range params {
		if p.WeightDecay {
			_ = mat.AxpyVec(lambda, p.Value.Data, p.Grad.Data)
		}
	}
}

// refClipGrad scales the gradients down to a global L2 norm of maxNorm and
// reports whether it had to.
func refClipGrad(params []Param, maxNorm float64) bool {
	if maxNorm <= 0 {
		return false
	}
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm <= maxNorm {
		return false
	}
	for _, p := range params {
		p.Grad.Scale(maxNorm / norm)
	}
	return true
}

// refState is the reference optimiser's per-tensor state: SGD's velocity,
// RMSProp's cache, or Adam's moments (a, b) and step count.
type refState struct {
	a, b []*mat.Matrix
	t    int
}

// refStep applies one step of the optimiser configured like cfg to params,
// keeping its state in st, and reports whether clipping fired.
func refStep(t *testing.T, cfg Optimizer, params []Param, st *refState) bool {
	t.Helper()
	if st.a == nil {
		for _, p := range params {
			st.a = append(st.a, mat.New(p.Grad.Rows, p.Grad.Cols))
			st.b = append(st.b, mat.New(p.Grad.Rows, p.Grad.Cols))
		}
	}
	var fired bool
	switch o := cfg.(type) {
	case *SGD:
		refApplyDecay(params, o.WeightDecay)
		fired = refClipGrad(params, o.ClipNorm)
		for i, p := range params {
			for j, g := range p.Grad.Data {
				if o.Momentum != 0 {
					v := st.a[i]
					v.Data[j] = o.Momentum*v.Data[j] - o.LR*g
					p.Value.Data[j] += v.Data[j]
				} else {
					p.Value.Data[j] -= o.LR * g
				}
			}
		}
	case *RMSProp:
		refApplyDecay(params, o.WeightDecay)
		fired = refClipGrad(params, o.ClipNorm)
		for i, p := range params {
			c := st.a[i]
			for j, g := range p.Grad.Data {
				c.Data[j] = flushTiny(o.Rho*c.Data[j] + (1-o.Rho)*g*g)
				p.Value.Data[j] = flushTiny(p.Value.Data[j] - o.LR*g/(math.Sqrt(c.Data[j])+o.Eps))
			}
		}
	case *Adam:
		refApplyDecay(params, o.WeightDecay)
		fired = refClipGrad(params, o.ClipNorm)
		st.t++
		c1 := 1 - math.Pow(o.Beta1, float64(st.t))
		c2 := 1 - math.Pow(o.Beta2, float64(st.t))
		for i, p := range params {
			if err := mat.AdamUpdate(p.Value.Data, p.Grad.Data, st.a[i].Data, st.b[i].Data,
				o.Beta1, o.Beta2, c1, c2, o.LR, o.Eps); err != nil {
				t.Fatal(err)
			}
		}
	default:
		t.Fatalf("no reference step for %T", cfg)
	}
	for _, p := range params {
		p.Grad.Zero()
	}
	return fired
}

// optimizerState returns the fused optimiser's per-tensor state in the
// order refState holds it (nil entries where the optimiser keeps none).
func optimizerState(o Optimizer) (a, b []*mat.Matrix) {
	switch o := o.(type) {
	case *SGD:
		return o.vel, nil
	case *RMSProp:
		return o.cache, nil
	case *Adam:
		return o.m, o.v
	}
	return nil, nil
}

// stepParams returns two identical parameter sets: small weights with panel
// caches, biases without decay, and one tensor of 70 031 elements — above
// tailFanOut, and a multiple of neither 4 nor tailChunk.
func stepParams(rng *rand.Rand) (fused, ref []Param) {
	shapes := []struct {
		rows, cols int
		weight     bool
	}{{5, 7, true}, {1, 5, false}, {13, 5387, true}, {1, 13, false}}
	for i, s := range shapes {
		v := mat.New(s.rows, s.cols)
		for j := range v.Data {
			v.Data[j] = rng.NormFloat64()
		}
		for _, set := range []*[]Param{&fused, &ref} {
			p := Param{Name: fmt.Sprint(i), Value: v.Clone(), Grad: mat.New(s.rows, s.cols), WeightDecay: s.weight}
			if s.weight {
				p.Cache = new(mat.PanelCache)
			}
			*set = append(*set, p)
		}
	}
	if fused[2].Value.Rows*fused[2].Value.Cols < tailFanOut {
		panic("stepParams: large tensor below tailFanOut")
	}
	return fused, ref
}

// TestOptimizerStepMatchesUnfused pins the fused optimiser step (one
// decay-and-norm prologue, then a chunked scale-update-zero tail that fans
// large tensors out over the worker pool) to the reference sequence of
// separate passes: after five steps the weights and the optimiser state are
// bit-equal, the gradients are zero and every panel cache is invalidated.
func TestOptimizerStepMatchesUnfused(t *testing.T) {
	optimizers := []struct {
		name string
		make func() Optimizer
	}{
		{"SGD", func() Optimizer { return NewSGD(0.05) }},
		{"SGD momentum", func() Optimizer { return &SGD{LR: 0.05, Momentum: 0.9} }},
		{"RMSProp", func() Optimizer { return NewRMSProp(2e-3) }},
		{"Adam", func() Optimizer { return NewAdam(1e-3) }},
	}
	regimes := []struct {
		name        string
		clip, decay float64
		fires       bool
	}{
		{"clip fires", 1, 1e-3, true},
		{"clip quiet", 1e9, 1e-3, false},
		{"decay only", 0, 1e-3, false},
		{"neither", 0, 0, false},
	}
	for _, oc := range optimizers {
		for _, rc := range regimes {
			t.Run(oc.name+"/"+rc.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(11))
				fused, ref := stepParams(rng)
				opt, cfg := oc.make(), oc.make()
				for _, o := range []Optimizer{opt, cfg} {
					switch o := o.(type) {
					case *SGD:
						o.ClipNorm, o.WeightDecay = rc.clip, rc.decay
					case *RMSProp:
						o.ClipNorm, o.WeightDecay = rc.clip, rc.decay
					case *Adam:
						o.ClipNorm, o.WeightDecay = rc.clip, rc.decay
					}
				}
				var st refState
				for step := 0; step < 5; step++ {
					for i, p := range fused {
						for j := range p.Grad.Data {
							g := rng.NormFloat64()
							p.Grad.Data[j], ref[i].Grad.Data[j] = g, g
						}
						if p.Cache != nil {
							x := mat.New(1, p.Value.Cols)
							if err := mat.MulBTCachedInto(mat.New(1, p.Value.Rows), x, p.Value, p.Cache); err != nil {
								t.Fatal(err)
							}
						}
					}
					if err := opt.Step(fused); err != nil {
						t.Fatal(err)
					}
					if fired := refStep(t, cfg, ref, &st); fired != rc.fires {
						t.Fatalf("step %d: clipping fired = %v, want %v", step, fired, rc.fires)
					}
					for i, p := range fused {
						if p.Grad.MaxAbs() != 0 {
							t.Fatalf("step %d: tensor %d keeps a gradient", step, i)
						}
						if p.Cache != nil && p.Cache.Cached() != nil {
							t.Fatalf("step %d: tensor %d keeps stale panels", step, i)
						}
					}
				}
				for i, p := range fused {
					assertBitsEqual(t, fmt.Sprintf("tensor %d weights", i), p.Value.Data, ref[i].Value.Data)
				}
				a, b := optimizerState(opt)
				for i := range a {
					assertBitsEqual(t, fmt.Sprintf("tensor %d state", i), a[i].Data, st.a[i].Data)
				}
				for i := range b {
					assertBitsEqual(t, fmt.Sprintf("tensor %d second moment", i), b[i].Data, st.b[i].Data)
				}
			})
		}
	}
}

func assertBitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: element %d = %v, want %v", what, j, got[j], want[j])
		}
	}
}
