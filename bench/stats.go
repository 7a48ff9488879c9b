package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of sorted:
// the smallest sample with at least p percent of the samples at or below
// it. An empty slice reads 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := rankOf(n, p)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// supported reports whether n samples carry the p-th percentile: a
// percentile is only reported when at least ten samples lie beyond it.
func supported(n int, p float64) bool {
	return n-rankOf(n, p) >= 10
}

// rankOf is the 1-based nearest rank of the p-th percentile among n sorted
// samples; the small tolerance keeps 99.9 % of 10 000 at 9 990.
func rankOf(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle of xs (mean of the two middle values for an even
// count); 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs; 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is the
// rule the repeatability criterion is stated in. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles of xs as a share of their
// median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// worseBy is the share of base by which cand is worse (negative when it is
// better), for a metric where lower or higher values are better.
func worseBy(better string, base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cand) / base
	}
	return (cand - base) / base
}

// summary is one reported metric: its value, how many samples or rounds it
// rests on, and the per-round values with their range.
type summary struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// ofRounds summarises a metric measured once per round by the round that
// pick chooses (median, lowest or highest); n counts the samples behind all
// rounds.
func ofRounds(unit string, n int, rounds []float64, pick func([]float64) float64) summary {
	s := summary{Value: pick(rounds), Unit: unit, N: n, Rounds: rounds}
	if len(rounds) > 0 {
		s.Min, s.Max = lowest(rounds), highest(rounds)
	}
	return s
}

func lowest(xs []float64) float64  { return sortedCopy(xs)[0] }
func highest(xs []float64) float64 { return sortedCopy(xs)[len(xs)-1] }

// single summarises a metric measured once.
func single(unit string, n int, v float64) summary {
	return summary{Value: v, Unit: unit, N: n, Min: v, Max: v}
}
