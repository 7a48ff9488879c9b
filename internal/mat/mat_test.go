package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %g, want 0", i, v)
		}
	}
}

func TestNewFromSlice(t *testing.T) {
	m, err := NewFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(1, 2); got != 6 {
		t.Fatalf("At(1,2) = %g, want 6", got)
	}
	if _, err := NewFromSlice(2, 3, []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("short slice error = %v, want ErrShape", err)
	}
}

func TestNewFromRows(t *testing.T) {
	m, err := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", m.Rows, m.Cols)
	}
	if got := m.At(2, 1); got != 6 {
		t.Fatalf("At(2,1) = %g, want 6", got)
	}
	if _, err := NewFromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrShape) {
		t.Fatalf("ragged rows error = %v, want ErrShape", err)
	}
	empty, err := NewFromRows(nil)
	if err != nil || empty.Rows != 0 {
		t.Fatalf("empty rows: m=%v err=%v", empty, err)
	}
}

func TestNewFromRowsCopies(t *testing.T) {
	row := []float64{1, 2}
	m, err := NewFromRows([][]float64{row})
	if err != nil {
		t.Fatal(err)
	}
	row[0] = 99
	if got := m.At(0, 0); got != 1 {
		t.Fatalf("matrix aliased caller slice: At(0,0) = %g, want 1", got)
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(4, 5)
	m.Set(2, 3, 7.5)
	if got := m.At(2, 3); got != 7.5 {
		t.Fatalf("At(2,3) = %g, want 7.5", got)
	}
}

func TestRowAliases(t *testing.T) {
	m := New(2, 2)
	m.Row(1)[0] = 9
	if got := m.At(1, 0); got != 9 {
		t.Fatalf("Row must alias storage; At(1,0) = %g, want 9", got)
	}
}

func TestColCopies(t *testing.T) {
	m, _ := NewFromSlice(2, 2, []float64{1, 2, 3, 4})
	col := m.Col(1)
	if col[0] != 2 || col[1] != 4 {
		t.Fatalf("Col(1) = %v, want [2 4]", col)
	}
	col[0] = 99
	if m.At(0, 1) != 2 {
		t.Fatal("Col must return a copy")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := NewFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("T shape = %dx%d, want 3x2", mt.Rows, mt.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := NewFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b, _ := NewFromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewFromSlice(2, 2, []float64{58, 64, 139, 154})
	if !Equal(got, want, 0) {
		t.Fatalf("Mul = %v, want %v", got.Data, want.Data)
	}
	if _, err := Mul(a, a); !errors.Is(err, ErrShape) {
		t.Fatalf("Mul shape error = %v, want ErrShape", err)
	}
}

// TestMulVec pins a matrix-vector product in the form the model stack
// computes it: a batch of one row through MulBTInto.
func TestMulVec(t *testing.T) {
	m, _ := NewFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x, _ := NewFromSlice(1, 3, []float64{1, 0, -1})
	got := New(1, 2)
	if err := MulBTInto(got, x, m); err != nil {
		t.Fatal(err)
	}
	if got.Data[0] != -2 || got.Data[1] != -2 {
		t.Fatalf("m·x = %v, want [-2 -2]", got.Data)
	}
	if err := MulBTInto(got, New(1, 1), m); !errors.Is(err, ErrShape) {
		t.Fatalf("m·x shape error = %v, want ErrShape", err)
	}
}

// TestMulVecTMatchesTransposeMul pins a vector-matrix product xᵀ·m in the
// form backpropagation computes it, a one-row MulInto, against multiplying
// by the explicit transpose.
func TestMulVecTMatchesTransposeMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(4, 6)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	x := New(1, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	got := New(1, 6)
	if err := MulInto(got, x, m); err != nil {
		t.Fatal(err)
	}
	want := mulVec(m.T(), x.Data)
	for i, v := range got.Data {
		if math.Abs(v-want[i]) > 1e-12 {
			t.Fatalf("xᵀ·m[%d] = %g, want %g", i, v, want[i])
		}
	}
}

func TestAddAddScaledScale(t *testing.T) {
	a, _ := NewFromSlice(2, 2, []float64{1, 2, 3, 4})
	b, _ := NewFromSlice(2, 2, []float64{10, 20, 30, 40})
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	if a.At(1, 1) != 44 {
		t.Fatalf("Add: At(1,1) = %g, want 44", a.At(1, 1))
	}
	if err := a.AddScaled(-1, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 1 {
		t.Fatalf("AddScaled: At(0,0) = %g, want 1", a.At(0, 0))
	}
	a.Scale(2)
	if a.At(0, 1) != 4 {
		t.Fatalf("Scale: At(0,1) = %g, want 4", a.At(0, 1))
	}
	if err := a.Add(New(1, 1)); !errors.Is(err, ErrShape) {
		t.Fatalf("Add shape error = %v, want ErrShape", err)
	}
}

func TestOuterAdd(t *testing.T) {
	m := New(2, 3)
	if err := m.OuterAdd([]float64{1, 2}, []float64{3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	want, _ := NewFromSlice(2, 3, []float64{3, 4, 5, 6, 8, 10})
	if !Equal(m, want, 0) {
		t.Fatalf("OuterAdd = %v, want %v", m.Data, want.Data)
	}
}

func TestCloneIndependent(t *testing.T) {
	a, _ := NewFromSlice(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestZeroFillMaxAbsFrobenius(t *testing.T) {
	m, _ := NewFromSlice(2, 2, []float64{3, -4, 0, 0})
	if got := m.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %g, want 4", got)
	}
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("FrobeniusNorm = %g, want 5", got)
	}
	m.Fill(1)
	if m.At(1, 1) != 1 {
		t.Fatal("Fill failed")
	}
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Fatal("Zero failed")
	}
}

// Property: (AᵀBᵀ)ᵀ == B·A for random conforming matrices.
func TestQuickTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a, b := New(r, k), New(k, c)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		ab, err := Mul(a, b)
		if err != nil {
			return false
		}
		btat, err := Mul(b.T(), a.T())
		if err != nil {
			return false
		}
		return Equal(ab, btat.T(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix product is associative within tolerance.
func TestQuickMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		mk := func() *Matrix {
			m := New(n, n)
			for i := range m.Data {
				m.Data[i] = rng.Float64()*2 - 1
			}
			return m
		}
		a, b, c := mk(), mk(), mk()
		ab, _ := Mul(a, b)
		abc1, _ := Mul(ab, c)
		bc, _ := Mul(b, c)
		abc2, _ := Mul(a, bc)
		return Equal(abc1, abc2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
