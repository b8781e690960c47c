package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestQRProjectionIdempotent(t *testing.T) {
	// P = A(AᵀA)⁻¹Aᵀ is a projector: applying the least-squares fit twice
	// changes nothing.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		a := randomTallMatrix(rng, 12, 4)
		b := make([]float64, 12)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1, err := SolveQR(a, b)
		if err != nil {
			t.Fatal(err)
		}
		x2, err := SolveQR(a, mulVec(a, x1))
		if err != nil {
			t.Fatal(err)
		}
		if !vecAlmostEq(x1, x2, 1e-8) {
			t.Fatalf("trial %d: projection not idempotent: %v vs %v", trial, x1, x2)
		}
	}
}

func TestQRResidualOrthogonalToColumns(t *testing.T) {
	// The least-squares residual must be orthogonal to every column of A.
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		a := randomTallMatrix(rng, 15, 3)
		b := make([]float64, 15)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveQR(a, b)
		if err != nil {
			t.Fatal(err)
		}
		r := residuals(a, x, b)
		atr, err := a.TMulVec(r)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range atr {
			if math.Abs(v) > 1e-9 {
				t.Fatalf("trial %d: residual not orthogonal to column %d: %v", trial, j, v)
			}
		}
	}
}

func TestProjectionColumnsSpanInvariance(t *testing.T) {
	// Projecting the columns of A onto their own span returns them exactly.
	rng := rand.New(rand.NewSource(41))
	a := randomTallMatrix(rng, 10, 3)
	for j := 0; j < 3; j++ {
		col := make([]float64, a.Rows())
		for i := range col {
			col[i] = a.At(i, j)
		}
		x, err := SolveQR(a, col)
		if err != nil {
			t.Fatal(err)
		}
		if back := mulVec(a, x); !vecAlmostEq(back, col, 1e-8) {
			t.Fatalf("column %d not reproduced by its own span", j)
		}
	}
}

func TestCholeskyMatchesQROnNormalEquations(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		rows := 6 + rng.Intn(20)
		cols := 1 + rng.Intn(4)
		a := randomTallMatrix(rng, rows, cols)
		b := make([]float64, rows)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		rhs, err := a.TMulVec(b)
		if err != nil {
			t.Fatal(err)
		}
		xChol, err := SolveCholesky(a.Gram(), rhs)
		if err != nil {
			t.Fatal(err) // random Gaussian columns: full rank w.p. 1
		}
		xQR, err := SolveQR(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !vecAlmostEq(xChol, xQR, 1e-6) {
			t.Fatalf("trial %d: Cholesky %v vs QR %v", trial, xChol, xQR)
		}
	}
}

func TestWeightedLeastSquaresScaleInvariance(t *testing.T) {
	// Scaling all weights by a constant must not change the solution.
	rng := rand.New(rand.NewSource(47))
	a := randomTallMatrix(rng, 20, 3)
	b := make([]float64, 20)
	w := make([]float64, 20)
	for i := range b {
		b[i] = rng.NormFloat64()
		w[i] = rng.Float64() + 0.1
	}
	x1, err := WeightedLeastSquares(a, b, w)
	if err != nil {
		t.Fatal(err)
	}
	w10 := make([]float64, len(w))
	for i := range w {
		w10[i] = 10 * w[i]
	}
	x2, err := WeightedLeastSquares(a, b, w10)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x1, x2, 1e-9) {
		t.Errorf("weight scaling changed the solution: %v vs %v", x1, x2)
	}
}
