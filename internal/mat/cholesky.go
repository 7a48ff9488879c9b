package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when a Cholesky factorisation is attempted on a
// matrix that is not symmetric positive definite (within floating-point
// tolerance).
var ErrNotSPD = errors.New("mat: matrix is not symmetric positive definite")

// Cholesky holds the lower-triangular factor L of an SPD matrix A = L·Lᵀ.
type Cholesky struct {
	// L is the lower-triangular factor; entries above the diagonal are zero.
	L *Matrix
}

// NewCholesky factors the symmetric positive-definite matrix a. Only the
// lower triangle of a is read. It returns ErrNotSPD (wrapped) if a pivot is
// not strictly positive.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: Cholesky of %dx%d", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, fmt.Errorf("%w: pivot %d is %g", ErrNotSPD, i, sum)
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return &Cholesky{L: l}, nil
}

// Solve returns x such that A·x = b, using forward then backward
// substitution against the stored factor.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	n := c.L.Rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: Cholesky.Solve vector length %d, want %d", ErrShape, len(b), n)
	}
	// Forward: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		row := c.L.Row(i)
		for k := 0; k < i; k++ {
			sum -= row[k] * y[k]
		}
		y[i] = sum / row[i]
	}
	// Backward: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= c.L.At(k, i) * x[k]
		}
		x[i] = sum / c.L.At(i, i)
	}
	return x, nil
}

// LogDet returns log det(A) = 2·Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.L.Rows; i++ {
		s += math.Log(c.L.At(i, i))
	}
	return 2 * s
}
