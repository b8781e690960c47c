package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// mustFromRows builds a matrix from equal-length rows.
func mustFromRows(t *testing.T, rows [][]float64) *Dense {
	t.Helper()
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			t.Fatalf("row %d has %d entries, want %d", i, len(r), m.cols)
		}
		copy(m.data[i*m.cols:], r)
	}
	return m
}

// mulVec returns a·v.
func mulVec(a *Dense, v []float64) []float64 {
	out := make([]float64, a.Rows())
	for i := range out {
		var s float64
		for j, r := range a.data[i*a.cols : (i+1)*a.cols] {
			s += r * v[j]
		}
		out[i] = s
	}
	return out
}

// residuals returns r = A·x − b, summed in the order Workspace.Reweight
// and the solvers' finish sum it.
func residuals(a *Dense, x, b []float64) []float64 {
	r := mulVec(a, x)
	for i := range r {
		r[i] -= b[i]
	}
	return r
}

// matMul returns a·b, the reference product for the Gram kernels.
func matMul(a, b *Dense) *Dense {
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var s float64
			for k := 0; k < a.cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// transpose returns aᵀ.
func transpose(a *Dense) *Dense {
	out := NewDense(a.cols, a.rows)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			out.Set(j, i, a.At(i, j))
		}
	}
	return out
}

// matAlmostEq reports whether a and b have the same shape and entries
// within tol.
func matAlmostEq(a, b *Dense, tol float64) bool {
	return a.rows == b.rows && a.cols == b.cols && vecAlmostEq(a.data, b.data, tol)
}

func vecAlmostEq(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestNewDenseAndAccess(t *testing.T) {
	m := NewDense(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 7)
	if got := m.At(1, 2); got != 7 {
		t.Errorf("At = %v", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Errorf("zero init broken: %v", got)
	}
}

func TestNewDensePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 0x0 matrix")
		}
	}()
	NewDense(0, 0)
}

func TestMulVecAndTranspose(t *testing.T) {
	// The A·x kernel behind Residuals and the allocating Aᵀ·v.
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}, {5, 6}})
	if v := mulVec(a, []float64{1, -1}); !vecAlmostEq(v, []float64{-1, -1, -1}, 1e-12) {
		t.Errorf("A·x = %v", v)
	}
	tv, err := a.TMulVec([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(tv, []float64{9, 12}, 1e-12) {
		t.Errorf("TMulVec = %v", tv)
	}
	if _, err := a.TMulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("TMulVec shape err = %v", err)
	}
}

func TestGramMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewDense(7, 3)
	for i := 0; i < 7; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	gram := a.Gram()
	explicit := matMul(transpose(a), a)
	if !matAlmostEq(gram, explicit, 1e-12) {
		t.Errorf("Gram mismatch:\n%v\nvs\n%v", gram, explicit)
	}
}

func TestWeightedGramMatchesExplicit(t *testing.T) {
	// The AᵀWA and AᵀWb kernels behind WeightedLeastSquares.
	rng := rand.New(rand.NewSource(2))
	a := NewDense(6, 3)
	w := make([]float64, 6)
	b := make([]float64, 6)
	for i := 0; i < 6; i++ {
		w[i] = rng.Float64() + 0.1
		b[i] = rng.NormFloat64()
		for j := 0; j < 3; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	wg := NewDense(3, 3)
	a.weightedGramInto(wg, w)
	// Explicit: Aᵀ diag(w) A.
	wa := a.Clone()
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			wa.Set(i, j, wa.At(i, j)*w[i])
		}
	}
	if !matAlmostEq(wg, matMul(transpose(a), wa), 1e-12) {
		t.Errorf("weighted Gram mismatch")
	}
	wtv := make([]float64, 3)
	a.weightedTMulVecInto(wtv, w, b)
	wb := make([]float64, 6)
	for i := range wb {
		wb[i] = w[i] * b[i]
	}
	explicitV, err := a.TMulVec(wb)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(wtv, explicitV, 1e-12) {
		t.Errorf("weighted Aᵀb mismatch: %v vs %v", wtv, explicitV)
	}
}

func TestNorms(t *testing.T) {
	m := mustFromRows(t, [][]float64{{3, -4}, {0, 0}})
	if got := m.MaxAbs(); got != 4 {
		t.Errorf("MaxAbs = %v", got)
	}
}

func TestVectorHelpers(t *testing.T) {
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Errorf("Norm2 = %v", got)
	}
}

func TestPropertyGramSymmetricPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		rows := 3 + rng.Intn(10)
		cols := 1 + rng.Intn(4)
		a := NewDense(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		g := a.Gram()
		for i := 0; i < cols; i++ {
			for j := 0; j < cols; j++ {
				if math.Abs(g.At(i, j)-g.At(j, i)) > 1e-12 {
					t.Fatalf("Gram not symmetric at (%d,%d)", i, j)
				}
			}
			if g.At(i, i) < -1e-12 {
				t.Fatalf("Gram diagonal negative: %v", g.At(i, i))
			}
		}
	}
}
