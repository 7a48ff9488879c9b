package mat

import (
	"fmt"
	"math"
)

// Vector helpers. Vectors are plain []float64 throughout the repository; the
// functions here centralise the element-wise arithmetic so callers do not
// hand-roll loops (and so property tests have a single target).

// Dot returns the inner product of a and b, which must have equal length.
func Dot(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: Dot lengths %d and %d", ErrShape, len(a), len(b))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s, nil
}

// AxpyVec computes y += s·x in place, through the vectorised kernel when
// the active dispatch level has one (bit-identical to the scalar loop).
func AxpyVec(s float64, x, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("%w: AxpyVec lengths %d and %d", ErrShape, len(x), len(y))
	}
	axpyInto(y, x, s)
	return nil
}

// CloneVec returns a copy of x. A nil input yields an empty, non-nil slice
// so callers can mutate the result safely.
func CloneVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// SumVec returns Σ x_i.
func SumVec(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// MeanVec returns the arithmetic mean of x, or 0 for an empty slice.
func MeanVec(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return SumVec(x) / float64(len(x))
}

// StdVec returns the population standard deviation of x, or 0 when x has
// fewer than two elements.
func StdVec(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	mu := MeanVec(x)
	var s float64
	for _, v := range x {
		d := v - mu
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)))
}

// MinMaxVec returns the minimum and maximum elements of x. It panics on an
// empty slice because there is no sensible zero answer.
func MinMaxVec(x []float64) (min, max float64) {
	if len(x) == 0 {
		panic("mat: MinMaxVec of empty slice")
	}
	min, max = x[0], x[0]
	for _, v := range x[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// ArgMax returns the index of the largest element, breaking ties toward the
// lowest index. It panics on an empty slice.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		panic("mat: ArgMax of empty slice")
	}
	best := 0
	for i, v := range x[1:] {
		if v > x[best] {
			best = i + 1
		}
	}
	return best
}

// SoftmaxInto writes the softmax of x into dst, computed with the
// max-subtraction trick for numerical stability. The result sums to 1 for
// any finite input. dst may alias x.
func SoftmaxInto(dst, x []float64) error {
	if len(dst) != len(x) {
		return fmt.Errorf("%w: SoftmaxInto lengths %d and %d", ErrShape, len(dst), len(x))
	}
	if len(x) == 0 {
		return nil
	}
	_, max := MinMaxVec(x)
	var sum float64
	for i, v := range x {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
	return nil
}
