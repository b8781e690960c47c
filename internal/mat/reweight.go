package mat

import (
	"fmt"
	"math"
)

// Reweight is the outcome of one Workspace.Reweight step.
type Reweight struct {
	// X is the re-solved iterate (AᵀWA)⁻¹AᵀWb; nil when Std is zero (an
	// exact fit, which leaves the weights untouched). Aliases workspace
	// scratch.
	X []float64
	// Res is the residual vector A·x − b at the incoming iterate. Aliases
	// workspace scratch.
	Res []float64
	// Mean and Std are the residuals' population mean and standard
	// deviation, accumulated with Welford's recurrence.
	Mean, Std float64
	// FloorHits counts the new weights below the caller's floor.
	FloorHits int
}

// Reweight runs one iteration of the iteratively re-weighted least squares
// of paper Eqs. 14–16 over A·x ≈ b in two passes over the rows:
//
//  1. r = A·x − b, with the running Welford mean and standard deviation;
//  2. w_i = exp(−d_i²/2) with d_i = (r_i − mean)/std (Eq. 15), the count of
//     weights below floor, and the weighted normal equations AᵀWA and AᵀWb,
//     which a Cholesky solve turns into the next iterate (Eq. 16).
//
// The result is bit-identical to the unfused sequence Residuals →
// stats.MeanStd → the exp weights → WeightedLeastSquares: every accumulator
// sees the same operations in the same order, and the zero-weight and
// zero-coefficient skips of the weighted Gram and rhs kernels are kept. A
// Gram matrix that is not numerically SPD falls back to
// WeightedLeastSquares over the just-written weights (Cholesky, then QR).
//
// w must have one entry per row; it is overwritten unless Std is zero. A
// NaN weight returns the error WeightedLeastSquares reports for it. x may
// alias the X of an earlier call on ws.
func (ws *Workspace) Reweight(a *Dense, b, x, w []float64, floor float64) (Reweight, error) {
	rows, n := a.Rows(), a.Cols()
	if n != len(x) || rows != len(b) || rows != len(w) {
		return Reweight{}, ErrShape
	}
	ws.res = grow(ws.res, rows)
	res := ws.res
	var mean, m2 float64
	for i := 0; i < rows; i++ {
		row := a.data[i*n : (i+1)*n]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		r := s - b[i]
		res[i] = r
		d := r - mean
		mean += d / float64(i+1)
		m2 += d * (r - mean)
	}
	rw := Reweight{Res: res, Mean: mean}
	if rows > 0 {
		rw.Std = math.Sqrt(m2 / float64(rows))
	}
	if rw.Std == 0 {
		return rw, nil
	}

	ws.gram.Reshape(n, n)
	ws.rhs = grow(ws.rhs, n)
	for j := range ws.rhs {
		ws.rhs[j] = 0
	}
	// Only the lower triangle of AᵀWA is accumulated: it is all the
	// Cholesky factorization reads.
	gram, rhs, std := ws.gram.data, ws.rhs, rw.Std
	for i := 0; i < rows; i++ {
		d := (res[i] - mean) / std
		wi := math.Exp(-d * d / 2) // Eq. 15
		w[i] = wi
		if wi < floor {
			rw.FloorHits++
		}
		if math.IsNaN(wi) {
			return Reweight{}, fmt.Errorf("weight %d is %v: %w", i, wi, ErrShape)
		}
		row := a.data[i*n : (i+1)*n]
		if wi != 0 {
			for ai, ra := range row {
				if ra == 0 {
					continue
				}
				ga := gram[ai*n : ai*n+ai+1]
				s := wi * ra
				for bi := range ga {
					ga[bi] += s * row[bi]
				}
			}
		}
		if wv := wi * b[i]; wv != 0 {
			for j, r := range row {
				rhs[j] += r * wv
			}
		}
	}
	ws.chol.Reshape(n, n)
	if err := choleskyInto(&ws.chol, &ws.gram); err != nil {
		xw, werr := ws.WeightedLeastSquares(a, b, w)
		if werr != nil {
			return Reweight{}, werr
		}
		rw.X = xw
		return rw, nil
	}
	ws.x = grow(ws.x, n)
	ws.y = grow(ws.y, n)
	choleskySolveFactorInto(ws.x, ws.y, &ws.chol, rhs)
	rw.X = ws.x
	return rw, nil
}
