package rnn

import (
	"math"

	"repro/internal/mat"
)

// The LSTM cell: the gate arithmetic of one step of one sequence, written
// once and called by batched inference (StepBatch and the hoisted encoder)
// and by the training forward.
//
// The activations equal 1/(1+math.Exp(−v)) and math.Tanh bit for bit, but a
// step takes its exponentials in two mat.ExpInto passes instead of 5H scalar
// calls: one over the four gate blocks — exp(−v) for the three sigmoid gates,
// exp(2|v|) for the candidate's tanh — and one over exp(2|c|) for tanh(c).

// cell finishes one LSTM step for one sequence. On entry z holds the input
// projection x·Wxᵀ and zh the recurrent one h·Whᵀ; on return z holds the
// activated gates (i, f, g, o), c and h the new states and tc tanh(c). e is
// 4H scratch; tc may be e[:H].
func (l *LSTM) cell(z, zh, c, h, tc, e []float64) {
	H := l.HiddenSize
	z, zh, e = z[:4*H], zh[:4*H], e[:4*H]
	c, h, tc = c[:H], h[:H], tc[:H]
	for i, b := range l.B {
		v := z[i] + (zh[i] + b)
		z[i] = v
		e[i] = -v
	}
	for i := 2 * H; i < 3*H; i++ {
		e[i] = 2 * math.Abs(z[i])
	}
	mat.ExpInto(e, e)
	for i := 0; i < H; i++ {
		ig := sigmoidFromExp(e[i])
		fg := sigmoidFromExp(e[H+i])
		gg := tanhFromExp(z[2*H+i], e[2*H+i])
		og := sigmoidFromExp(e[3*H+i])
		z[i], z[H+i], z[2*H+i], z[3*H+i] = ig, fg, gg, og
		c[i] = fg*c[i] + ig*gg
		tc[i] = 2 * math.Abs(c[i]) // e[i] is read above, so tc may be e[:H]
	}
	mat.ExpInto(tc, tc)
	for i := 0; i < H; i++ {
		tc[i] = tanhFromExp(c[i], tc[i])
		h[i] = z[3*H+i] * tc[i]
	}
}

// sigmoidFromExp is the logistic function of v given e = math.Exp(−v).
func sigmoidFromExp(e float64) float64 { return 1 / (1 + e) }

// tanhFromExp is math.Tanh(x) given s = math.Exp(2|x|). It is the standard
// library's tanh copied branch for branch, with its one math.Exp call
// replaced by s, so the result is math.Tanh's bit for bit; s is read only on
// the branch that needs it (0.625 ≤ |x| ≤ 44.01…).
func tanhFromExp(x, s float64) float64 {
	const maxLog = 8.8029691931113054295988e+01 // log(2**127)
	z := math.Abs(x)
	switch {
	case z > 0.5*maxLog:
		if x < 0 {
			return -1
		}
		return 1
	case z >= 0.625:
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
	default:
		if x == 0 {
			return x
		}
		s := x * x
		z = x + x*s*((tanhP0*s+tanhP1)*s+tanhP2)/(((s+tanhQ0)*s+tanhQ1)*s+tanhQ2)
	}
	return z
}

// The rational approximation math.Tanh uses below 0.625.
const (
	tanhP0 = -9.64399179425052238628e-1
	tanhP1 = -9.92877231001918586564e1
	tanhP2 = -1.61468768441708447952e3
	tanhQ0 = 1.12811678491632931402e2
	tanhQ1 = 2.23548839060100448583e3
	tanhQ2 = 4.84406305325125486048e3
)
