package mat

import (
	"errors"
	"fmt"
	"math"
)

// Gaussian is a multivariate normal distribution N(µ, Σ) fitted to a sample
// of vectors. It is the statistical core of the paper's anomaly score: the
// log probability density (logPD) of a reconstruction error under the
// Gaussian of *normal* reconstruction errors.
type Gaussian struct {
	// Mean is µ, the per-dimension sample mean.
	Mean []float64

	dim    int
	cov    *Matrix
	chol   *Cholesky
	logDet float64
	// logNorm caches −(d/2)·log(2π) − ½·log det Σ.
	logNorm float64
}

// ErrNoSamples is returned when fitting a Gaussian to an empty sample set.
var ErrNoSamples = errors.New("mat: no samples to fit Gaussian")

// FitGaussian estimates N(µ, Σ) from the rows of samples. reg is a ridge
// term added to the diagonal of Σ so the factorisation stays positive
// definite when dimensions are (near-)degenerate; pass a small value such as
// 1e-6 for standardised data.
func FitGaussian(samples [][]float64, reg float64) (*Gaussian, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	d := len(samples[0])
	if d == 0 {
		return nil, fmt.Errorf("%w: zero-dimensional samples", ErrShape)
	}
	mean := make([]float64, d)
	for i, s := range samples {
		if len(s) != d {
			return nil, fmt.Errorf("%w: sample %d has dim %d, want %d", ErrShape, i, len(s), d)
		}
		for j, v := range s {
			mean[j] += v
		}
	}
	n := float64(len(samples))
	for j := range mean {
		mean[j] /= n
	}

	cov := New(d, d)
	diff := make([]float64, d)
	for _, s := range samples {
		for j, v := range s {
			diff[j] = v - mean[j]
		}
		if err := cov.OuterAdd(diff, diff); err != nil {
			return nil, err
		}
	}
	// Population covariance; for n == 1 this leaves Σ = reg·I which is the
	// only defensible choice without more data.
	cov.Scale(1 / n)
	for j := 0; j < d; j++ {
		cov.Set(j, j, cov.At(j, j)+reg)
	}
	return NewGaussian(mean, cov)
}

// NewGaussian builds a Gaussian from an explicit mean and covariance. The
// covariance must be symmetric positive definite.
func NewGaussian(mean []float64, cov *Matrix) (*Gaussian, error) {
	d := len(mean)
	if cov.Rows != d || cov.Cols != d {
		return nil, fmt.Errorf("%w: mean dim %d vs covariance %dx%d", ErrShape, d, cov.Rows, cov.Cols)
	}
	chol, err := NewCholesky(cov)
	if err != nil {
		return nil, fmt.Errorf("fitting Gaussian: %w", err)
	}
	covCopy := New(d, d)
	copy(covCopy.Data, cov.Data)
	g := &Gaussian{
		Mean:   CloneVec(mean),
		dim:    d,
		cov:    covCopy,
		chol:   chol,
		logDet: chol.LogDet(),
	}
	g.logNorm = -0.5*float64(d)*math.Log(2*math.Pi) - 0.5*g.logDet
	return g, nil
}

// Dim returns the dimensionality of the distribution.
func (g *Gaussian) Dim() int { return g.dim }

// Covariance returns a copy of Σ, so a fitted distribution can be
// serialised and rebuilt elsewhere with NewGaussian.
func (g *Gaussian) Covariance() *Matrix {
	out := New(g.dim, g.dim)
	copy(out.Data, g.cov.Data)
	return out
}

// LogPDF returns log N(x; µ, Σ) — the paper's logPD anomaly score (more
// negative means more anomalous).
func (g *Gaussian) LogPDF(x []float64) (float64, error) {
	if len(x) != g.dim {
		return 0, fmt.Errorf("%w: LogPDF input dim %d, want %d", ErrShape, len(x), g.dim)
	}
	diff := make([]float64, g.dim)
	for i, v := range x {
		diff[i] = v - g.Mean[i]
	}
	sol, err := g.chol.Solve(diff)
	if err != nil {
		return 0, err
	}
	maha, err := Dot(diff, sol)
	if err != nil {
		return 0, err
	}
	return g.logNorm - 0.5*maha, nil
}

// lanes is how many rows LogPDFRows scores in lockstep, and lockstepDim the
// widest Gaussian whose per-block scratch it keeps on the stack.
const (
	lanes       = 4
	lockstepDim = 32
)

// LogPDFRows scores every row of xs under the Gaussian, one logPD per row —
// the batch form of LogPDF used by the vectorised anomaly scorer. A
// row's score is a chain of dependent divisions (the two triangular solves),
// so the rows advance four at a time, with the four substitution sums held
// in registers: the chains overlap instead of running one after another.
// Each row still takes LogPDF's exact operations in its exact order (same k
// order, same divisions by L[i,i], same maha accumulation), so the scores
// are bit-identical to per-row calls, and a non-finite row touches no other
// lane. A last block of fewer than four rows runs the same loop over zero
// rows in the spare lanes.
func (g *Gaussian) LogPDFRows(xs *Matrix) ([]float64, error) {
	return g.LogPDFRowsInto(nil, xs)
}

// LogPDFRowsInto is LogPDFRows writing the scores into dst's storage,
// resized to xs.Rows (reallocated only when dst is too short), and
// returning it: a caller that keeps the result between calls scores
// without allocating.
func (g *Gaussian) LogPDFRowsInto(dst []float64, xs *Matrix) ([]float64, error) {
	if xs.Cols != g.dim {
		return nil, fmt.Errorf("%w: LogPDFRows input dim %d, want %d", ErrShape, xs.Cols, g.dim)
	}
	out := dst[:0]
	if cap(out) < xs.Rows {
		out = make([]float64, xs.Rows)
	}
	out = out[:xs.Rows]
	if g.dim == 1 {
		// Univariate fast path: the 1×1 factor solve collapses to two
		// divisions — same operations, same order as Solve, so the scores
		// stay bit-identical while skipping the generic loops that would
		// otherwise dominate low-dimensional scoring.
		l := g.chol.L.Data[0]
		mean := g.Mean[0]
		for i, v := range xs.Data {
			d := v - mean
			sol := d / l / l
			out[i] = g.logNorm - 0.5*(d*sol)
		}
		return out, nil
	}
	n, L := g.dim, g.chol.L.Data
	// d holds a block's centred rows and s their solutions, lane-interleaved:
	// element j of lane r is at j·lanes + r. s holds the forward solution y
	// until the backward pass overwrites y[i] with x[i], which is the last
	// read of y[i] — the values Solve keeps in two vectors.
	var stack [2 * lanes * lockstepDim]float64
	buf := stack[:]
	if n > lockstepDim {
		buf = make([]float64, 2*lanes*n)
	}
	d, s := buf[:lanes*n], buf[lanes*n:2*lanes*n]
	for r0 := 0; r0 < xs.Rows; r0 += lanes {
		rows := min(lanes, xs.Rows-r0)
		for r := 0; r < lanes; r++ {
			if r >= rows {
				for j := 0; j < n; j++ {
					d[j*lanes+r] = 0
				}
				continue
			}
			for j, v := range xs.Row(r0 + r) {
				d[j*lanes+r] = v - g.Mean[j]
			}
		}
		// Forward: L·y = d.
		for i := 0; i < n; i++ {
			row := L[i*n : i*n+i+1]
			di := d[i*lanes : i*lanes+lanes : i*lanes+lanes]
			s0, s1, s2, s3 := di[0], di[1], di[2], di[3]
			for k, l := range row[:i] {
				yk := s[k*lanes : k*lanes+lanes : k*lanes+lanes]
				s0 -= l * yk[0]
				s1 -= l * yk[1]
				s2 -= l * yk[2]
				s3 -= l * yk[3]
			}
			lii := row[i]
			yi := s[i*lanes : i*lanes+lanes : i*lanes+lanes]
			yi[0], yi[1], yi[2], yi[3] = s0/lii, s1/lii, s2/lii, s3/lii
		}
		// Backward: Lᵀ·x = y.
		for i := n - 1; i >= 0; i-- {
			xi := s[i*lanes : i*lanes+lanes : i*lanes+lanes]
			s0, s1, s2, s3 := xi[0], xi[1], xi[2], xi[3]
			for k := i + 1; k < n; k++ {
				l := L[k*n+i]
				xk := s[k*lanes : k*lanes+lanes : k*lanes+lanes]
				s0 -= l * xk[0]
				s1 -= l * xk[1]
				s2 -= l * xk[2]
				s3 -= l * xk[3]
			}
			lii := L[i*n+i]
			xi[0], xi[1], xi[2], xi[3] = s0/lii, s1/lii, s2/lii, s3/lii
		}
		var m0, m1, m2, m3 float64
		for j := 0; j < n; j++ {
			dj := d[j*lanes : j*lanes+lanes : j*lanes+lanes]
			xj := s[j*lanes : j*lanes+lanes : j*lanes+lanes]
			m0 += dj[0] * xj[0]
			m1 += dj[1] * xj[1]
			m2 += dj[2] * xj[2]
			m3 += dj[3] * xj[3]
		}
		maha := [lanes]float64{m0, m1, m2, m3}
		for r := 0; r < rows; r++ {
			out[r0+r] = g.logNorm - 0.5*maha[r]
		}
	}
	return out, nil
}

// Mahalanobis returns the squared Mahalanobis distance (x−µ)ᵀ Σ⁻¹ (x−µ).
func (g *Gaussian) Mahalanobis(x []float64) (float64, error) {
	lp, err := g.LogPDF(x)
	if err != nil {
		return 0, err
	}
	return -2 * (lp - g.logNorm), nil
}
