package mat

// The package-level solvers below each run the Workspace method on a fresh
// workspace. That workspace is never reused, so the slice it returns is the
// caller's to keep. Callers that solve in a loop should hold a Workspace.

// LeastSquares returns the ordinary least-squares solution of the
// overdetermined system A·x = b, i.e. X* = (AᵀA)⁻¹Aᵀb (paper Eq. 13).
//
// The solve goes through the normal equations with a Cholesky factorization,
// which is both the formulation the paper states and the fastest path for
// LION's tall-skinny systems. When the Gram matrix is not numerically SPD
// (rank-deficient geometry), it falls back to Householder QR on the original
// system for better numerical behaviour, and returns ErrSingular only when
// that fails too.
func LeastSquares(a *Dense, b []float64) ([]float64, error) {
	return new(Workspace).LeastSquares(a, b)
}

// WeightedLeastSquares returns the weighted least-squares solution
// X* = (AᵀWA)⁻¹AᵀWb with W = diag(w) (paper Eq. 16). Weights must be
// non-negative; rows with zero weight are ignored.
func WeightedLeastSquares(a *Dense, b, w []float64) ([]float64, error) {
	return new(Workspace).WeightedLeastSquares(a, b, w)
}
