package rnn

import (
	"math"

	"repro/internal/mat"
)

// The LSTM cell: the gate arithmetic of one step of one sequence, written
// once and called by batched inference (StepBatch and the hoisted encoder)
// and by the training forward.
//
// The activations are 1/(1+math.Exp(−v)) and math.Tanh bit for bit. Under
// avx2 on a CPU with FMA, mat.LSTMCell does the whole cell in vector lanes;
// the scalar loop below takes the units from the first group it declines on
// and the H mod 4 tail, and every unit at every other dispatch level.

// cell finishes one LSTM step for one sequence. On entry z holds the input
// projection x·Wxᵀ and zh the recurrent one h·Whᵀ; on return z holds the
// activated gates (i, f, g, o), c and h the new states and tc tanh(c).
func (l *LSTM) cell(z, zh, c, h, tc []float64) {
	l.cellUnits(z, zh, c, h, tc, mat.LSTMCell(z, zh, l.B, c, h, tc))
}

// cellUnits is the scalar cell over units [from, H). tanh(c) takes a second
// loop so that the units' exp → c → exp chains overlap.
func (l *LSTM) cellUnits(z, zh, c, h, tc []float64, from int) {
	H, b := l.HiddenSize, l.B
	for j := from; j < H; j++ {
		i, f, g, o := j, H+j, 2*H+j, 3*H+j
		z[i] = sigmoidFromExp(math.Exp(-(z[i] + (zh[i] + b[i]))))
		z[f] = sigmoidFromExp(math.Exp(-(z[f] + (zh[f] + b[f]))))
		vg := z[g] + (zh[g] + b[g])
		z[g] = tanhFromExp(vg, math.Exp(2*math.Abs(vg)))
		z[o] = sigmoidFromExp(math.Exp(-(z[o] + (zh[o] + b[o]))))
		c[j] = z[f]*c[j] + z[i]*z[g]
	}
	for j := from; j < H; j++ {
		tc[j] = tanhFromExp(c[j], math.Exp(2*math.Abs(c[j])))
		h[j] = z[3*H+j] * tc[j]
	}
}

// sigmoidFromExp is the logistic function of v given e = math.Exp(−v).
func sigmoidFromExp(e float64) float64 { return 1 / (1 + e) }

// tanhFromExp is math.Tanh(x) given s = math.Exp(2|x|). It is the standard
// library's tanh copied branch for branch, with its one math.Exp call
// replaced by s, so the result is math.Tanh's bit for bit; s is read only on
// the branch that needs it (0.625 ≤ |x| ≤ 44.01…). mat.LSTMCell computes the
// same three branches in vector lanes.
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
