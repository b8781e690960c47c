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
	// ResNorm is the Euclidean norm of Res, bit-identical to Norm2(Res).
	ResNorm float64
	// FloorHits counts the new weights below the caller's floor.
	FloorHits int
}

// Reweight runs one iteration of the iteratively re-weighted least squares
// of paper Eqs. 14–16 over A·x ≈ b in two passes over the rows:
//
//  1. r = A·x − b, with the running Welford mean and standard deviation
//     and the sum of squares behind ResNorm;
//  2. w_i = exp(−d_i²/2) with d_i = (r_i − mean)/std (Eq. 15), computed
//     for all rows at once by expInto, then the count of weights below
//     floor and the weighted normal equations AᵀWA and AᵀWb, which a
//     Cholesky solve turns into the next iterate (Eq. 16). The reduced
//     [α, ω] system of the line solver (2 columns) accumulates in
//     registers; other column counts take the generic loop.
//
// The result is bit-identical to the unfused sequence Residuals → Norm2 →
// stats.MeanStd → the math.Exp weights → WeightedLeastSquares: every
// accumulator sees the same operations in the same order, and the
// zero-weight and zero-coefficient skips of the weighted Gram and rhs
// kernels are kept. A Gram matrix that is not numerically SPD falls back
// to WeightedLeastSquares over the just-written weights (Cholesky, then
// QR).
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
	var mean, m2, ss float64
	for i := 0; i < rows; i++ {
		row := a.data[i*n : (i+1)*n]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		r := s - b[i]
		res[i] = r
		ss += r * r
		d := r - mean
		mean += d / float64(i+1)
		m2 += d * (r - mean)
	}
	rw := Reweight{Res: res, Mean: mean, ResNorm: math.Sqrt(ss)}
	if rows > 0 {
		rw.Std = math.Sqrt(m2 / float64(rows))
	}
	if rw.Std == 0 {
		return rw, nil
	}

	std := rw.Std
	for i, r := range res {
		d := (r - mean) / std
		w[i] = -d * d / 2
	}
	expInto(w, w) // Eq. 15

	ws.gram.Reshape(n, n)
	ws.rhs = grow(ws.rhs, n)
	for j := range ws.rhs {
		ws.rhs[j] = 0
	}
	var err error
	if n == 2 {
		rw.FloorHits, err = reweightSums2(ws.gram.data, ws.rhs, a.data, b, w, floor)
	} else {
		rw.FloorHits, err = reweightSums(ws.gram.data, ws.rhs, a.data, b, w, floor)
	}
	if err != nil {
		return Reweight{}, err
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
	choleskySolveFactorInto(ws.x, ws.y, &ws.chol, ws.rhs)
	rw.X = ws.x
	return rw, nil
}

// reweightSums adds the weighted normal equations of the row-major n-column
// matrix a (n = len(rhs)) into the zeroed gram and rhs, and counts the
// weights below floor. Only the lower triangle of AᵀWA is accumulated: it
// is all the Cholesky factorization reads. A NaN weight is an error.
func reweightSums(gram, rhs, a, b, w []float64, floor float64) (int, error) {
	n := len(rhs)
	hits := 0
	for i, wi := range w {
		if wi < floor {
			hits++
		}
		if math.IsNaN(wi) {
			return 0, fmt.Errorf("weight %d is %v: %w", i, wi, ErrShape)
		}
		row := a[i*n : (i+1)*n]
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
	return hits, nil
}

// reweightSums2 is reweightSums for n = 2, with the three lower-triangle
// Gram entries and both rhs entries held in registers. Every sum sees the
// same operations, skips included, in the same order as in reweightSums.
func reweightSums2(gram, rhs, a, b, w []float64, floor float64) (int, error) {
	var g00, g10, g11, r0, r1 float64
	hits := 0
	for i, wi := range w {
		if wi < floor {
			hits++
		}
		if math.IsNaN(wi) {
			return 0, fmt.Errorf("weight %d is %v: %w", i, wi, ErrShape)
		}
		a0, a1 := a[2*i], a[2*i+1]
		if wi != 0 {
			if a0 != 0 {
				s := wi * a0
				g00 += s * a0
			}
			if a1 != 0 {
				s := wi * a1
				g10 += s * a0
				g11 += s * a1
			}
		}
		if wv := wi * b[i]; wv != 0 {
			r0 += a0 * wv
			r1 += a1 * wv
		}
	}
	gram[0], gram[2], gram[3] = g00, g10, g11
	rhs[0], rhs[1] = r0, r1
	return hits, nil
}
