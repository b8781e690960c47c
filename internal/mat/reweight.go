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
//  2. w_i = exp(−d_i²/2) with d_i = (r_i − mean)/std (Eq. 15), the count
//     of weights below floor, and the weighted normal equations AᵀWA and
//     AᵀWb, which a Cholesky solve turns into the next iterate (Eq. 16).
//     The reduced [α, ω] system of the line solver (2 columns) runs this
//     pass in reweightKernel2 where useReweightKernel is set; every other
//     case computes the weights with weightsInto, then accumulates them
//     with reweightSums.
//
// The result is bit-identical to the unfused sequence A·x − b → Norm2 →
// stats.MeanStd → the math.Exp weights → WeightedLeastSquares: every
// accumulator sees the same operations in the same order, and the
// zero-weight and zero-coefficient skips of the weighted Gram and rhs
// kernels are kept. A Gram matrix that is not numerically SPD falls back
// to WeightedLeastSquares over the just-written weights (Cholesky, then
// QR).
//
// w must have one entry per row; it is overwritten unless Std is zero. A
// NaN weight returns the error WeightedLeastSquares reports for it, and
// leaves w partly written. x may alias the X of an earlier call on ws.
func (ws *Workspace) Reweight(a *Dense, b, x, w []float64, floor float64) (Reweight, error) {
	rows, n := a.Rows(), a.Cols()
	if n != len(x) || rows != len(b) || rows != len(w) {
		return Reweight{}, ErrShape
	}
	ws.res = grow(ws.res, rows)
	res := ws.res
	ad := a.data[:rows*n]
	var mean, m2, ss float64
	for i := 0; i < rows; i++ {
		var s float64
		if n == 2 {
			s += ad[2*i] * x[0]
			s += ad[2*i+1] * x[1]
		} else {
			for j, v := range ad[i*n : (i+1)*n] {
				s += v * x[j]
			}
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

	ws.gram.Reshape(n, n)
	ws.rhs = grow(ws.rhs, n)
	for j := range ws.rhs {
		ws.rhs[j] = 0
	}
	var err error
	if n == 2 && useReweightKernel {
		rw.FloorHits, err = reweightPass2(ws.gram.data, ws.rhs, ad, b, res, w, mean, rw.Std, floor)
	} else {
		weightsInto(w, res, mean, rw.Std)
		rw.FloorHits, err = reweightSums(ws.gram.data, ws.rhs, ad, b, w, 0, rows, floor)
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

// weightsInto sets w[i] = exp(−d²/2) with d = (res[i] − mean)/std, the
// IRWLS weights of Eq. 15, through one expInto call.
func weightsInto(w, res []float64, mean, std float64) {
	w = w[:len(res)]
	for i, r := range res {
		d := (r - mean) / std
		w[i] = -d * d / 2
	}
	expInto(w, w)
}

// reweightPass2 is pass 2 of Reweight for a 2-column system on
// reweightKernel2: the kernel takes every block of 4 rows it can, and each
// block it stops before, and the tail, go through weightsInto and
// reweightSums, which carry on from the same sums.
func reweightPass2(gram, rhs, a, b, res, w []float64, mean, std, floor float64) (int, error) {
	hits := 0
	for i := 0; i < len(w); {
		done, h := reweightKernel2(gram, rhs, w[i:], res[i:], a[2*i:], b[i:], mean, std, floor)
		i += done
		hits += h
		end := min(i+4, len(w))
		weightsInto(w[i:end], res[i:end], mean, std)
		h, err := reweightSums(gram, rhs, a, b, w, i, end, floor)
		if err != nil {
			return 0, err
		}
		hits += h
		i = end
	}
	return hits, nil
}

// reweightSums adds the weighted normal equations of rows [lo, hi) of the
// row-major n-column matrix a (n = len(rhs)) into gram and rhs, and counts
// the weights below floor. Only the lower triangle of AᵀWA is
// accumulated: it is all the Cholesky factorization reads. A NaN weight
// is an error.
func reweightSums(gram, rhs, a, b, w []float64, lo, hi int, floor float64) (int, error) {
	n := len(rhs)
	hits := 0
	for i := lo; i < hi; i++ {
		wi := w[i]
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
