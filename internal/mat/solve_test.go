package mat

import (
	"errors"
	"math/rand"
	"testing"
)

func TestCholeskyFactorReconstruction(t *testing.T) {
	a := mustFromRows(t, [][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := mustFromRows(t, [][]float64{
		{2, 0, 0},
		{6, 1, 0},
		{-8, 5, 3},
	})
	if !matAlmostEq(l, want, 1e-10) {
		t.Errorf("L =\n%v\nwant\n%v", l, want)
	}
	if recon := matMul(l, transpose(l)); !matAlmostEq(recon, a, 1e-10) {
		t.Errorf("LLᵀ != A")
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {2, 1}}) // indefinite
	if _, err := Cholesky(a); !errors.Is(err, ErrNotSPD) {
		t.Errorf("indefinite err = %v", err)
	}
	if _, err := Cholesky(NewDense(2, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("shape err = %v", err)
	}
}

func TestSolveCholeskyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		// Build SPD as BᵀB + I.
		b := NewDense(n+2, n)
		for i := 0; i < n+2; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		a := b.Gram()
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		got, err := SolveCholesky(a, mulVec(a, want))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !vecAlmostEq(got, want, 1e-8) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}
