// Package rnn implements recurrent networks — an LSTM with full
// backpropagation through time, a bidirectional wrapper, and the
// sequence-to-sequence reconstruction models the paper deploys for
// multivariate anomaly detection (LSTM-seq2seq-IoT/Edge and
// BiLSTM-seq2seq-Cloud).
package rnn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/nn"
)

// LSTM is a single-layer long short-term memory network.
//
// Gate layout: the stacked pre-activation vector z = Wx·x + Wh·h + b has
// four blocks of size H in the order input (i), forget (f), candidate (g),
// output (o). The forget-gate bias block is initialised to 1, the standard
// trick that lets gradients flow early in training.
type LSTM struct {
	InSize     int
	HiddenSize int

	// Wx maps the input to the stacked gates (4H×D); Wh is the recurrent
	// kernel (4H×H); B the stacked gate bias (4H).
	Wx *mat.Matrix
	Wh *mat.Matrix
	B  []float64

	gradWx *mat.Matrix
	gradWh *mat.Matrix
	gradB  []float64

	cache *lstmCache

	// cacheWx/cacheWh hold the kernels packed into panels for the batched
	// step path; invalidated through Params().Cache whenever the weights
	// change, so steady-state inference packs each kernel once per update.
	cacheWx mat.PanelCache
	cacheWh mat.PanelCache
}

// lstmCache stores everything BackwardSeq needs from a ForwardSeq: inputs, states (index 0 = initial state), post-activation
// gates and tanh(c) per step.
type lstmCache struct {
	xs    [][]float64
	hs    [][]float64 // length T+1
	cs    [][]float64 // length T+1
	gates [][]float64 // length T, each 4H: [i f g o] post-activation
	tanhC [][]float64 // length T
}

// NewLSTM creates an LSTM with Glorot-initialised input kernel, scaled-
// uniform recurrent kernel, and forget bias 1.
func NewLSTM(inSize, hiddenSize int, rng *rand.Rand) *LSTM {
	if inSize <= 0 || hiddenSize <= 0 {
		panic(fmt.Sprintf("rnn: invalid LSTM shape %d->%d", inSize, hiddenSize))
	}
	l := &LSTM{
		InSize:     inSize,
		HiddenSize: hiddenSize,
		Wx:         mat.New(4*hiddenSize, inSize),
		Wh:         mat.New(4*hiddenSize, hiddenSize),
		B:          make([]float64, 4*hiddenSize),
		gradWx:     mat.New(4*hiddenSize, inSize),
		gradWh:     mat.New(4*hiddenSize, hiddenSize),
		gradB:      make([]float64, 4*hiddenSize),
	}
	nn.GlorotUniform(l.Wx, rng)
	nn.OrthogonalFallback(l.Wh, rng)
	for i := hiddenSize; i < 2*hiddenSize; i++ { // forget-gate block
		l.B[i] = 1
	}
	return l
}

// sigmoid is the logistic function.
func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// step advances one timestep from (hPrev, cPrev) on input x, returning the
// new states plus the post-activation gates and tanh(c) for caching.
func (l *LSTM) step(x, hPrev, cPrev []float64) (h, c, gates, tc []float64, err error) {
	z, err := l.Wx.MulVec(x)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("lstm step: %w", err)
	}
	zh, err := l.Wh.MulVec(hPrev)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("lstm step: %w", err)
	}
	H := l.HiddenSize
	gates = make([]float64, 4*H)
	for i := range z {
		z[i] += zh[i] + l.B[i]
	}
	for i := 0; i < H; i++ {
		gates[i] = sigmoid(z[i])           // input gate
		gates[H+i] = sigmoid(z[H+i])       // forget gate
		gates[2*H+i] = math.Tanh(z[2*H+i]) // candidate
		gates[3*H+i] = sigmoid(z[3*H+i])   // output gate
	}
	h = make([]float64, H)
	c = make([]float64, H)
	tc = make([]float64, H)
	for i := 0; i < H; i++ {
		c[i] = gates[H+i]*cPrev[i] + gates[i]*gates[2*H+i]
		tc[i] = math.Tanh(c[i])
		h[i] = gates[3*H+i] * tc[i]
	}
	return h, c, gates, tc, nil
}

// ForwardSeq is the training forward: it runs the LSTM over the sequence xs
// (T vectors of width InSize) from initial state (h0, c0) — nil initial
// states mean zeros — and caches the internals for one BackwardSeq. It
// returns the hidden state at every step plus the final hidden and cell
// states. Because it writes the cache it must not run concurrently on a
// shared model; inference goes through StepBatch.
func (l *LSTM) ForwardSeq(xs [][]float64, h0, c0 []float64) (hs [][]float64, hT, cT []float64, err error) {
	H := l.HiddenSize
	if h0 == nil {
		h0 = make([]float64, H)
	}
	if c0 == nil {
		c0 = make([]float64, H)
	}
	if len(h0) != H || len(c0) != H {
		return nil, nil, nil, fmt.Errorf("%w: initial state widths %d/%d, want %d", mat.ErrShape, len(h0), len(c0), H)
	}
	cache := &lstmCache{
		hs: [][]float64{mat.CloneVec(h0)},
		cs: [][]float64{mat.CloneVec(c0)},
	}
	h, c := h0, c0
	hs = make([][]float64, len(xs))
	for t, x := range xs {
		if len(x) != l.InSize {
			return nil, nil, nil, fmt.Errorf("%w: step %d input width %d, want %d", mat.ErrShape, t, len(x), l.InSize)
		}
		var gates, tc []float64
		h, c, gates, tc, err = l.step(x, h, c)
		if err != nil {
			return nil, nil, nil, err
		}
		hs[t] = h
		cache.xs = append(cache.xs, mat.CloneVec(x))
		cache.hs = append(cache.hs, h)
		cache.cs = append(cache.cs, c)
		cache.gates = append(cache.gates, gates)
		cache.tanhC = append(cache.tanhC, tc)
	}
	l.cache = cache
	return hs, h, c, nil
}

// BackwardSeq backpropagates through the cached forward pass. dhs provides
// ∂L/∂h_t for every step (nil entries or a nil slice mean zero); dhT and
// dcT are extra gradients flowing into the final states (e.g. from a
// downstream decoder). It accumulates parameter gradients and returns
// ∂L/∂x_t per step plus gradients for the initial states.
func (l *LSTM) BackwardSeq(dhs [][]float64, dhT, dcT []float64) (dxs [][]float64, dh0, dc0 []float64, err error) {
	cache := l.cache
	if cache == nil {
		return nil, nil, nil, fmt.Errorf("rnn: BackwardSeq before ForwardSeq")
	}
	l.cache = nil // a cache is valid for exactly one backward pass
	T := len(cache.xs)
	H := l.HiddenSize
	if dhs != nil && len(dhs) != T {
		return nil, nil, nil, fmt.Errorf("%w: %d step grads for %d steps", mat.ErrShape, len(dhs), T)
	}
	dh := make([]float64, H)
	dc := make([]float64, H)
	if dhT != nil {
		if len(dhT) != H {
			return nil, nil, nil, fmt.Errorf("%w: dhT width %d, want %d", mat.ErrShape, len(dhT), H)
		}
		copy(dh, dhT)
	}
	if dcT != nil {
		if len(dcT) != H {
			return nil, nil, nil, fmt.Errorf("%w: dcT width %d, want %d", mat.ErrShape, len(dcT), H)
		}
		copy(dc, dcT)
	}
	dxs = make([][]float64, T)
	dz := make([]float64, 4*H)
	for t := T - 1; t >= 0; t-- {
		if dhs != nil && dhs[t] != nil {
			if len(dhs[t]) != H {
				return nil, nil, nil, fmt.Errorf("%w: dhs[%d] width %d, want %d", mat.ErrShape, t, len(dhs[t]), H)
			}
			for i, g := range dhs[t] {
				dh[i] += g
			}
		}
		gates, tc := cache.gates[t], cache.tanhC[t]
		cPrev := cache.cs[t]
		for i := 0; i < H; i++ {
			ig, fg, gg, og := gates[i], gates[H+i], gates[2*H+i], gates[3*H+i]
			do := dh[i] * tc[i]
			dct := dc[i] + dh[i]*og*(1-tc[i]*tc[i])
			di := dct * gg
			df := dct * cPrev[i]
			dg := dct * ig
			dz[i] = di * ig * (1 - ig)
			dz[H+i] = df * fg * (1 - fg)
			dz[2*H+i] = dg * (1 - gg*gg)
			dz[3*H+i] = do * og * (1 - og)
			dc[i] = dct * fg // becomes dc_{t-1}
		}
		if err := l.gradWx.OuterAdd(dz, cache.xs[t]); err != nil {
			return nil, nil, nil, err
		}
		if err := l.gradWh.OuterAdd(dz, cache.hs[t]); err != nil {
			return nil, nil, nil, err
		}
		for i, g := range dz {
			l.gradB[i] += g
		}
		dx, err := l.Wx.MulVecT(dz)
		if err != nil {
			return nil, nil, nil, err
		}
		dxs[t] = dx
		dhPrev, err := l.Wh.MulVecT(dz)
		if err != nil {
			return nil, nil, nil, err
		}
		dh = dhPrev
	}
	return dxs, dh, dc, nil
}

// Params returns the trainable parameters.
func (l *LSTM) Params() []nn.Param {
	return []nn.Param{
		{Name: "Wx", Value: l.Wx, Grad: l.gradWx, WeightDecay: true, Cache: &l.cacheWx},
		{Name: "Wh", Value: l.Wh, Grad: l.gradWh, WeightDecay: true, Cache: &l.cacheWh},
		{Name: "b", Value: vecMat(l.B), Grad: vecMat(l.gradB)},
	}
}

// NumParams returns the scalar parameter count.
func (l *LSTM) NumParams() int {
	return len(l.Wx.Data) + len(l.Wh.Data) + len(l.B)
}

// FlopsPerStep estimates multiply-accumulate FLOPs per timestep.
func (l *LSTM) FlopsPerStep() int64 {
	return 2 * int64(4*l.HiddenSize) * int64(l.InSize+l.HiddenSize)
}

func vecMat(v []float64) *mat.Matrix {
	return &mat.Matrix{Rows: 1, Cols: len(v), Data: v}
}
