package mat

import (
	"fmt"
	"math"
)

// Workspace is a caller-owned scratch arena for LION's least-squares
// solves, and the only implementation of them: the package-level
// LeastSquares and WeightedLeastSquares each run a method here on a fresh
// workspace. All intermediate storage lives in the workspace and
// is reused across calls, so in steady state (stable problem dimensions) a
// workspace-based solve performs zero heap allocations.
//
// Ownership rules, unlike Dense methods:
//
//   - Returned slices ALIAS workspace scratch. They are valid only until the
//     next call of any method on the same Workspace; callers that need the
//     values longer must copy them out.
//   - A Workspace must not be shared between goroutines without external
//     serialization. The intended pattern is one Workspace per stream
//     session / worker.
//
// The zero value is ready to use; buffers grow on demand and are retained.
// The rare rank-deficient QR fallback still allocates; it is off the
// steady-state path by construction.
type Workspace struct {
	gram Dense     // AᵀA or AᵀWA scratch
	chol Dense     // Cholesky factor scratch
	aw   Dense     // sqrt-weighted copy of A for the QR fallback
	x    []float64 // solution vector (returned, aliases scratch)
	y    []float64 // forward-substitution scratch
	rhs  []float64 // Aᵀb / AᵀWb scratch
	res  []float64 // Reweight's residual vector (returned, aliases scratch)
	bw   []float64 // sqrt-weighted copy of b for the QR fallback
}

// grow returns s resized to length n, reusing capacity when possible. The
// contents are unspecified; callers must fully overwrite.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// LeastSquares returns the ordinary least-squares solution of A·x = b via
// the normal equations with a Cholesky factorization, falling back to
// Householder QR when the Gram matrix is not numerically SPD. The returned
// slice aliases workspace scratch and is valid until the next call on ws.
func (ws *Workspace) LeastSquares(a *Dense, b []float64) ([]float64, error) {
	if a.Rows() != len(b) {
		return nil, ErrShape
	}
	if a.Rows() < a.Cols() {
		return nil, fmt.Errorf("underdetermined system %dx%d: %w",
			a.Rows(), a.Cols(), ErrShape)
	}
	n := a.Cols()
	ws.gram.Reshape(n, n)
	a.gramInto(&ws.gram)
	ws.rhs = grow(ws.rhs, n)
	for i := range ws.rhs {
		ws.rhs[i] = 0
	}
	a.tMulVecInto(ws.rhs, b)
	ws.chol.Reshape(n, n)
	if err := choleskyInto(&ws.chol, &ws.gram); err != nil {
		x, qerr := SolveQR(a, b)
		if qerr != nil {
			return nil, qerr
		}
		ws.x = append(ws.x[:0], x...)
		return ws.x, nil
	}
	ws.x = grow(ws.x, n)
	ws.y = grow(ws.y, n)
	choleskySolveFactorInto(ws.x, ws.y, &ws.chol, ws.rhs)
	return ws.x, nil
}

// WeightedLeastSquares returns X* = (AᵀWA)⁻¹AᵀWb with W = diag(w),
// falling back to QR on the square-root-weighted system when AᵀWA is not
// numerically SPD. The returned slice aliases workspace scratch and is valid
// until the next call on ws.
func (ws *Workspace) WeightedLeastSquares(a *Dense, b, w []float64) ([]float64, error) {
	if a.Rows() != len(b) || a.Rows() != len(w) {
		return nil, ErrShape
	}
	for i, wi := range w {
		if wi < 0 || math.IsNaN(wi) {
			return nil, fmt.Errorf("weight %d is %v: %w", i, wi, ErrShape)
		}
	}
	n := a.Cols()
	ws.gram.Reshape(n, n)
	a.weightedGramInto(&ws.gram, w)
	ws.rhs = grow(ws.rhs, n)
	for i := range ws.rhs {
		ws.rhs[i] = 0
	}
	a.weightedTMulVecInto(ws.rhs, w, b)
	ws.chol.Reshape(n, n)
	if err := choleskyInto(&ws.chol, &ws.gram); err != nil {
		// Fall back to QR on the square-root-weighted system:
		// minimise ‖√W·(A·x − b)‖.
		ws.aw.Reshape(a.Rows(), a.Cols())
		copy(ws.aw.data, a.data)
		ws.bw = grow(ws.bw, len(b))
		for i := 0; i < a.Rows(); i++ {
			s := math.Sqrt(w[i])
			for j := 0; j < a.Cols(); j++ {
				ws.aw.Set(i, j, ws.aw.At(i, j)*s)
			}
			ws.bw[i] = b[i] * s
		}
		x, qerr := SolveQR(&ws.aw, ws.bw)
		if qerr != nil {
			return nil, qerr
		}
		ws.x = append(ws.x[:0], x...)
		return ws.x, nil
	}
	ws.x = grow(ws.x, n)
	ws.y = grow(ws.y, n)
	choleskySolveFactorInto(ws.x, ws.y, &ws.chol, ws.rhs)
	return ws.x, nil
}

// ConditionEst returns a cheap order-of-magnitude estimate of the 2-norm
// condition number κ₂(A) of a tall matrix A, from the Cholesky factor of its
// Gram matrix: with AᵀA = L·Lᵀ,
//
//	κ₂(A) = √κ₂(AᵀA) ≥ max_i L_ii / min_i L_ii.
//
// The diagonal ratio is a standard lower-bound estimate — exact for diagonal
// systems, within a small factor for the well-scaled tall-skinny systems
// LION builds — at the cost of one Gram product, far cheaper than an SVD.
// It returns +Inf when the Gram matrix is not numerically SPD (a
// rank-deficient system) and 1 for empty input.
func (ws *Workspace) ConditionEst(a *Dense) float64 {
	if a.Rows() == 0 || a.Cols() == 0 {
		return 1
	}
	n := a.Cols()
	ws.gram.Reshape(n, n)
	a.gramInto(&ws.gram)
	ws.chol.Reshape(n, n)
	if err := choleskyInto(&ws.chol, &ws.gram); err != nil {
		return math.Inf(1)
	}
	return cholDiagRatio(&ws.chol)
}

// cholDiagRatio returns max|L_ii| / min|L_ii| for a Cholesky factor: the
// one condition estimate, shared by Workspace.ConditionEst and
// NormalEq.ConditionEst. It returns +Inf when the smallest diagonal entry is
// zero.
func cholDiagRatio(l *Dense) float64 {
	lo, hi := math.Inf(1), 0.0
	for i := 0; i < l.Rows(); i++ {
		d := math.Abs(l.At(i, i))
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if lo == 0 {
		return math.Inf(1)
	}
	return hi / lo
}
