// Package mat provides the small dense linear-algebra kernel used by the
// neural-network, recurrent-network and anomaly-scoring packages.
//
// The package is deliberately minimal: row-major dense matrices over float64,
// the handful of BLAS-1/2/3 style operations the rest of the repository
// needs, a Cholesky factorisation for symmetric positive-definite matrices,
// and multivariate Gaussian statistics (fit, log-density) for reconstruction-
// error scoring.
//
// All operations either return fresh values or write into receivers the
// caller owns; nothing retains references to caller slices unless documented.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned (wrapped) by operations whose operand dimensions do
// not conform.
var ErrShape = errors.New("mat: dimension mismatch")

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty (0×0) matrix ready for use with Reshape or
// assignment from New.
type Matrix struct {
	Rows, Cols int
	// Data holds the elements in row-major order: element (i,j) lives at
	// Data[i*Cols+j]. len(Data) == Rows*Cols.
	Data []float64
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewFromSlice returns an r×c matrix backed by a copy of data, which must
// contain exactly r*c elements in row-major order.
func NewFromSlice(r, c int, data []float64) (*Matrix, error) {
	if len(data) != r*c {
		return nil, fmt.Errorf("%w: NewFromSlice %dx%d needs %d elements, got %d", ErrShape, r, c, r*c, len(data))
	}
	m := New(r, c)
	copy(m.Data, data)
	return m, nil
}

// NewFromRows returns a matrix whose i-th row is a copy of rows[i]. All rows
// must have equal length.
func NewFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("%w: NewFromRows row %d has %d columns, want %d", ErrShape, i, len(row), c)
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage. Mutating the
// returned slice mutates the matrix.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: col %d out of range %d", j, m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		ri := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range ri {
			out.Data[j*out.Cols+i] = v
		}
	}
	return out
}

// Mul returns the matrix product a·b.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("%w: Mul %dx%d by %dx%d", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// Add computes a += b element-wise.
func (a *Matrix) Add(b *Matrix) error {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return fmt.Errorf("%w: Add %dx%d and %dx%d", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i, v := range b.Data {
		a.Data[i] += v
	}
	return nil
}

// AddScaled computes a += s·b element-wise.
func (a *Matrix) AddScaled(s float64, b *Matrix) error {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return fmt.Errorf("%w: AddScaled %dx%d and %dx%d", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i, v := range b.Data {
		a.Data[i] += s * v
	}
	return nil
}

// Scale multiplies every element by s in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// OuterAdd computes m += x·yᵀ where x has length m.Rows and y length m.Cols.
func (m *Matrix) OuterAdd(x, y []float64) error {
	if len(x) != m.Rows || len(y) != m.Cols {
		return fmt.Errorf("%w: OuterAdd %dx%d with |x|=%d |y|=%d", ErrShape, m.Rows, m.Cols, len(x), len(y))
	}
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, yv := range y {
			row[j] += xv * yv
		}
	}
	return nil
}

// Equal reports whether a and b have identical shape and elements within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbs returns the largest absolute element value, or 0 for an empty matrix.
func (m *Matrix) MaxAbs() float64 {
	var max float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// FrobeniusNorm returns the Frobenius norm sqrt(Σ m_ij²).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}
