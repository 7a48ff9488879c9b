// Package metrics provides the evaluation measures reported in the paper's
// tables and demo panel: accuracy, F1-score, detection-delay statistics and
// the summed reward of Table II.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Confusion is a binary confusion matrix for anomaly detection (positive =
// anomaly). The zero value is ready to use.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one prediction against ground truth.
func (c *Confusion) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && !actual:
		c.TN++
	default:
		c.FN++
	}
}

// Total returns the number of recorded samples.
func (c *Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Merge folds another confusion matrix into this one — used by concurrent
// evaluators that accumulate per-worker matrices and combine them at the end.
func (c *Confusion) Merge(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.TN += o.TN
	c.FN += o.FN
}

// Accuracy returns (TP+TN)/total, or 0 with no samples.
func (c *Confusion) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(t)
}

// Precision returns TP/(TP+FP), or 0 when nothing was predicted positive.
func (c *Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when there are no positives.
func (c *Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall, or 0 when
// undefined.
func (c *Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the matrix compactly.
func (c *Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d acc=%.4f f1=%.4f",
		c.TP, c.FP, c.TN, c.FN, c.Accuracy(), c.F1())
}

// DelayStats accumulates detection-delay observations (milliseconds).
// The zero value is ready to use.
type DelayStats struct {
	values []float64
	sum    float64
}

// Add records one delay.
func (d *DelayStats) Add(ms float64) {
	d.values = append(d.values, ms)
	d.sum += ms
}

// Count returns the number of observations.
func (d *DelayStats) Count() int { return len(d.values) }

// Merge folds another accumulator's observations into this one.
func (d *DelayStats) Merge(o *DelayStats) {
	d.values = append(d.values, o.values...)
	d.sum += o.sum
}

// Mean returns the average delay, or 0 with no observations.
func (d *DelayStats) Mean() float64 {
	if len(d.values) == 0 {
		return 0
	}
	return d.sum / float64(len(d.values))
}

// Min returns the smallest delay, or 0 with no observations.
func (d *DelayStats) Min() float64 {
	if len(d.values) == 0 {
		return 0
	}
	m := d.values[0]
	for _, v := range d.values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest delay, or 0 with no observations.
func (d *DelayStats) Max() float64 {
	if len(d.values) == 0 {
		return 0
	}
	m := d.values[0]
	for _, v := range d.values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using
// nearest-rank interpolation. Edge cases are total, never garbage: no
// observations returns 0, a single observation is every percentile, p
// outside [0, 100] clamps to the min/max, and a NaN p returns NaN
// instead of indexing with an undefined conversion.
func (d *DelayStats) Percentile(p float64) float64 {
	if len(d.values) == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	sorted := append([]float64(nil), d.values...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// RewardSum accumulates the per-sample rewards whose total is the paper's
// Table II "Reward" column (see DESIGN.md §3).
type RewardSum struct {
	sum float64
	n   int
}

// Add records one per-sample reward.
func (r *RewardSum) Add(reward float64) {
	r.sum += reward
	r.n++
}

// Sum returns the summed reward (the Table II form).
func (r *RewardSum) Sum() float64 { return r.sum }

// Merge folds another accumulator into this one.
func (r *RewardSum) Merge(o RewardSum) {
	r.sum += o.sum
	r.n += o.n
}

// Mean returns the per-sample mean reward, or 0 with no samples.
func (r *RewardSum) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}
