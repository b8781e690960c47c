package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/rfid-lion/lion/internal/stats"
)

// reweightFloor is the weight floor the fuzz harness counts against; the
// solver's own floor (core.WeightFloor) has the same value.
const reweightFloor = 1e-6

// Fuzz input shapes, selected by bits of the mode byte.
const (
	modeZeroRows  = 1 << iota // every third row of A is all zeros
	modeExactFit              // b = A·x + c: constant residuals, σ = 0
	modeNaN                   // one NaN in b, so every weight is NaN
	modeNotSPD                // the last column is zero: AᵀWA is singular
	modeOutlier               // one huge residual among many rows: weights underflow to 0
	modeZeroCoefs             // a sparse A: about half its entries are zero
)

// reweightInput builds one fuzz case: A (rows×cols), b, the incoming
// iterate x, and a weight vector pre-filled with a sentinel.
func reweightInput(seed int64, rows, cols int, mode uint8) (*Dense, []float64, []float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	a := randomTallMatrix(rng, rows, cols)
	x := make([]float64, cols)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	if mode&modeZeroCoefs != 0 {
		for i := range a.data {
			if rng.Intn(2) == 0 {
				a.data[i] = 0
			}
		}
	}
	if mode&modeZeroRows != 0 {
		for i := 0; i < rows; i += 3 {
			for j := 0; j < cols; j++ {
				a.Set(i, j, 0)
			}
		}
	}
	if mode&modeNotSPD != 0 {
		for i := 0; i < rows; i++ {
			a.Set(i, cols-1, 0)
		}
	}
	b := make([]float64, rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	if mode&modeExactFit != 0 {
		// x = 0 makes every residual exactly −c.
		for j := range x {
			x[j] = 0
		}
		for i := range b {
			b[i] = 0.75
		}
	}
	if mode&modeOutlier != 0 {
		b[rng.Intn(rows)] = 1e6
	}
	if mode&modeNaN != 0 {
		b[rng.Intn(rows)] = math.NaN()
	}
	w := make([]float64, rows)
	for i := range w {
		w[i] = -7 // sentinel: an exact fit must leave it in place
	}
	return a, b, x, w
}

// sameBits reports whether two vectors are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzReweightEquivalence pins Workspace.Reweight to the unfused IRWLS step
// it replaces — Residuals, stats.MeanStd, the exp weights of Eq. 15 and
// WeightedLeastSquares — with math.Float64bits equality on the residuals,
// mean, standard deviation, weights, floor count and iterate, and the same
// error, across 1–4 columns, zero rows and coefficients, underflowing zero
// weights, σ = 0, NaN weights and the non-SPD fallback.
func FuzzReweightEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(2), uint8(0))
	f.Add(int64(2), uint16(7), uint8(1), uint8(0))
	f.Add(int64(3), uint16(250), uint8(3), uint8(modeZeroRows))
	f.Add(int64(4), uint16(30), uint8(4), uint8(modeExactFit))
	f.Add(int64(5), uint16(30), uint8(2), uint8(modeNaN))
	f.Add(int64(6), uint16(25), uint8(3), uint8(modeNotSPD))
	f.Add(int64(7), uint16(2047), uint8(2), uint8(modeOutlier))
	f.Add(int64(8), uint16(60), uint8(4), uint8(modeZeroCoefs|modeZeroRows))
	f.Add(int64(9), uint16(3), uint8(4), uint8(modeNotSPD|modeZeroRows))
	f.Fuzz(func(t *testing.T, seed int64, nRows uint16, nCols, mode uint8) {
		rows := 1 + int(nRows)%2048
		cols := 1 + int(nCols)%4
		a, b, x, w := reweightInput(seed, rows, cols, mode)
		wantW := append([]float64(nil), w...)

		// The unfused reference, on the allocating package-level kernels.
		wantRes, err := Residuals(a, x, b)
		if err != nil {
			t.Fatal(err)
		}
		mean, std := stats.MeanStd(wantRes)
		hits := 0
		var wantX []float64
		var wantErr error
		if std != 0 {
			for i, r := range wantRes {
				d := (r - mean) / std
				wantW[i] = math.Exp(-d * d / 2)
				if wantW[i] < reweightFloor {
					hits++
				}
			}
			wantX, wantErr = WeightedLeastSquares(a, b, wantW)
		}

		// A warm workspace must not carry state between steps: run an
		// unrelated step first.
		var ws Workspace
		wa, wb, wx, ww := reweightInput(seed+1, 5, 2, 0)
		if _, err := ws.Reweight(wa, wb, wx, ww, reweightFloor); err != nil {
			t.Fatal(err)
		}
		got, err := ws.Reweight(a, b, x, w, reweightFloor)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("error %v, want %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !sameBits(got.Res, wantRes) {
			t.Fatalf("residuals differ:\n got %v\nwant %v", got.Res, wantRes)
		}
		if !sameBits([]float64{got.Mean, got.Std}, []float64{mean, std}) {
			t.Fatalf("mean/std = %v/%v, want %v/%v", got.Mean, got.Std, mean, std)
		}
		if !sameBits(w, wantW) {
			t.Fatalf("weights differ:\n got %v\nwant %v", w, wantW)
		}
		if got.FloorHits != hits {
			t.Fatalf("floor hits %d, want %d", got.FloorHits, hits)
		}
		if std == 0 {
			if got.X != nil {
				t.Fatalf("exact fit returned an iterate %v", got.X)
			}
			return
		}
		if !sameBits(got.X, wantX) {
			t.Fatalf("iterate %v, want %v", got.X, wantX)
		}
	})
}

// TestReweightCoversEdgeCases checks that the fuzz seeds really reach the
// edge cases they are named for, so the seed corpus run by plain `go test`
// exercises each one.
func TestReweightCoversEdgeCases(t *testing.T) {
	var ws Workspace
	step := func(seed int64, rows, cols int, mode uint8) (Reweight, []float64, error) {
		a, b, x, w := reweightInput(seed, rows, cols, mode)
		rw, err := ws.Reweight(a, b, x, w, reweightFloor)
		return rw, w, err
	}
	if rw, _, err := step(4, 31, 4, modeExactFit); err != nil || rw.Std != 0 || rw.X != nil {
		t.Errorf("exact fit: std %v x %v err %v, want σ = 0 and no iterate", rw.Std, rw.X, err)
	}
	if _, _, err := step(5, 31, 2, modeNaN); err == nil {
		t.Error("NaN residual: no error")
	}
	zeros := 0
	if _, w, err := step(7, 2048, 2, modeOutlier); err != nil {
		t.Errorf("outlier: %v", err)
	} else {
		for _, wi := range w {
			if wi == 0 {
				zeros++
			}
		}
	}
	if zeros == 0 {
		t.Error("outlier: no weight underflowed to zero")
	}
	// A zero column leaves a zero pivot, so the Cholesky factorization
	// fails for certain and the step must take the WeightedLeastSquares
	// fallback, whose QR solve reports the rank deficiency.
	if _, _, err := step(6, 26, 3, modeNotSPD); !errors.Is(err, ErrSingular) {
		t.Errorf("zero column: err %v, want ErrSingular from the QR fallback", err)
	}
}
