package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestWorkspaceMatchesAllocatingPath asserts that a workspace reused across
// random tall systems of varying shape returns the same bits as a fresh one
// (what the package-level solvers run on).
func TestWorkspaceMatchesAllocatingPath(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var ws Workspace
	for trial := 0; trial < 50; trial++ {
		rows := 4 + rng.Intn(30)
		cols := 2 + rng.Intn(3)
		a := randomTallMatrix(rng, rows, cols)
		b := make([]float64, rows)
		w := make([]float64, rows)
		for i := range b {
			b[i] = rng.NormFloat64()
			w[i] = rng.Float64() + 1e-3
		}

		want, err := LeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d: LeastSquares: %v", trial, err)
		}
		got, err := ws.LeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d: ws.LeastSquares: %v", trial, err)
		}
		if !vecAlmostEq(got, want, 0) {
			t.Fatalf("trial %d: reused workspace = %v, fresh = %v", trial, got, want)
		}

		wantW, err := WeightedLeastSquares(a, b, w)
		if err != nil {
			t.Fatalf("trial %d: WeightedLeastSquares: %v", trial, err)
		}
		gotW, err := ws.WeightedLeastSquares(a, b, w)
		if err != nil {
			t.Fatalf("trial %d: ws.WeightedLeastSquares: %v", trial, err)
		}
		if !vecAlmostEq(gotW, wantW, 0) {
			t.Fatalf("trial %d: reused weighted = %v, fresh = %v", trial, gotW, wantW)
		}
	}
}

// TestWorkspaceQRFallback drives the rank-deficient path: the Gram matrix of
// a matrix with duplicate columns is not SPD, so both solvers fall back to
// QR.
func TestWorkspaceQRFallback(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}})
	b := []float64{1, 2, 3, 4}
	var ws Workspace
	if _, err := ws.LeastSquares(a, b); !errors.Is(err, ErrSingular) {
		t.Fatalf("fallback err = %v, want ErrSingular", err)
	}
	// The √W-scaled copy may come out of QR just short of singular; the
	// reused workspace must then agree with a fresh one bit for bit.
	w := []float64{1, 2, 1, 2}
	wantW, wantErr := WeightedLeastSquares(a, b, w)
	gotW, gotErr := ws.WeightedLeastSquares(a, b, w)
	if (wantErr == nil) != (gotErr == nil) || !vecAlmostEq(gotW, wantW, 0) {
		t.Fatalf("weighted fallback = %v, %v; fresh workspace = %v, %v", gotW, gotErr, wantW, wantErr)
	}
	if c := ws.ConditionEst(a); !math.IsInf(c, 1) {
		t.Fatalf("ConditionEst of rank-deficient system = %v, want +Inf", c)
	}
}

func TestConditionEstDiagonal(t *testing.T) {
	// For a diagonal matrix the Cholesky-diagonal estimate is exact.
	a := mustFromRows(t, [][]float64{{10, 0}, {0, 1}, {0, 0}})
	if got := new(Workspace).ConditionEst(a); math.Abs(got-10) > 1e-12 {
		t.Errorf("cond est = %g, want 10", got)
	}
}

func TestConditionEstWellConditioned(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 0}, {0, 1}, {1, 1}})
	got := new(Workspace).ConditionEst(a)
	if got < 1 || got > 3 {
		t.Errorf("cond est = %g, want small (>=1)", got)
	}
}

func TestConditionEstSingular(t *testing.T) {
	// Duplicate columns: rank deficient, the Gram matrix is not SPD.
	a := mustFromRows(t, [][]float64{{1, 1}, {2, 2}, {3, 3}})
	if got := new(Workspace).ConditionEst(a); !math.IsInf(got, 1) {
		t.Errorf("cond est of singular system = %g, want +Inf", got)
	}
}

// TestWorkspaceShapeErrors covers the solvers' input validation.
func TestWorkspaceShapeErrors(t *testing.T) {
	var ws Workspace
	a := mustFromRows(t, [][]float64{{1, 0}, {0, 1}, {1, 1}})
	if _, err := ws.LeastSquares(a, []float64{1, 2}); err == nil {
		t.Error("LeastSquares with short b: want error")
	}
	if _, err := ws.LeastSquares(NewDense(2, 3), []float64{1, 2}); err == nil {
		t.Error("underdetermined system: want error")
	}
	if _, err := ws.WeightedLeastSquares(a, []float64{1, 2, 3}, []float64{1, -1, 1}); err == nil {
		t.Error("negative weight: want error")
	}
	if _, err := ws.WeightedLeastSquares(a, []float64{1, 2, 3}, []float64{1, 1}); err == nil {
		t.Error("short weights: want error")
	}
}

// TestWorkspaceSteadyStateZeroAllocs enforces the zero-allocation contract:
// after the first (warm-up) call sizes the scratch, repeated solves of
// same-shaped systems must not touch the heap.
func TestWorkspaceSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomTallMatrix(rng, 24, 3)
	b := make([]float64, 24)
	w := make([]float64, 24)
	for i := range b {
		b[i] = rng.NormFloat64()
		w[i] = 1
	}
	var ws Workspace
	if _, err := ws.LeastSquares(a, b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ws.LeastSquares(a, b); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.WeightedLeastSquares(a, b, w); err != nil {
			t.Fatal(err)
		}
		ws.ConditionEst(a)
	})
	if allocs != 0 {
		t.Errorf("steady-state workspace solve allocates %.1f times per run, want 0", allocs)
	}
}

// TestWorkspaceScratchReuseAcrossShapes checks that a workspace survives
// being used for systems of different shapes back to back.
func TestWorkspaceScratchReuseAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ws Workspace
	for _, shape := range [][2]int{{8, 2}, {30, 4}, {5, 3}, {8, 2}} {
		a := randomTallMatrix(rng, shape[0], shape[1])
		b := make([]float64, shape[0])
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, err := LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ws.LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !vecAlmostEq(got, want, 0) {
			t.Fatalf("shape %v: ws solve = %v, want %v", shape, got, want)
		}
	}
}

// TestDenseReshape covers the in-place resize used by all scratch matrices.
func TestDenseReshape(t *testing.T) {
	m := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	data := m.data
	m.Reshape(2, 2)
	if &m.data[0] != &data[0] {
		t.Error("same-size Reshape reallocated backing array")
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("Reshape left entry (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
	m.Reshape(1, 2)
	if &m.data[0] != &data[0] {
		t.Error("shrinking Reshape reallocated backing array")
	}
	m.Reshape(4, 4)
	if m.Rows() != 4 || m.Cols() != 4 {
		t.Fatalf("Reshape dims = %dx%d, want 4x4", m.Rows(), m.Cols())
	}
	var zero Dense
	zero.Reshape(2, 3)
	if zero.Rows() != 2 || zero.Cols() != 3 {
		t.Error("zero-value Dense did not Reshape")
	}
	defer func() {
		if recover() == nil {
			t.Error("Reshape(0, 1) did not panic")
		}
	}()
	m.Reshape(0, 1)
}
