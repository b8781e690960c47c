package mat

import (
	"fmt"
	"math"
)

// maxDowndates bounds how many hyperbolic downdates may touch a cached
// Cholesky factor before NormalEq forces a full refactorization. Each
// downdate loses roughly a digit of accuracy in the worst case, so a hard
// cap keeps the drift of a long-running sliding window bounded regardless
// of the data.
const maxDowndates = 64

// downdateTolFactor guards the hyperbolic downdate: when the downdated
// diagonal square r² = L_kk² − v_k² falls below this fraction of L_kk², the
// factor is numerically losing positive definiteness and NormalEq falls back
// to a full refactorization instead of committing a garbage factor.
const downdateTolFactor = 1e-12

// NormalEq maintains the normal equations AᵀA·x = Aᵀb of a least-squares
// system under row insertion and removal, together with a cached Cholesky
// factor kept current by rank-1 updates (LINPACK dchud) and hyperbolic
// downdates (dchdd). A sliding-window solve that slides by one sample calls
// RemoveRow + AddRow + Solve and reuses the previous window's factorization
// in O(n²) instead of refactorizing in O(n³) — for LION's tiny systems the
// win is mostly in allocations and cache traffic, not asymptotics.
//
// Fallback conditions — the cached factor is dropped and the next Solve
// refactorizes from the exactly-maintained Gram matrix when:
//
//   - a downdate drives a diagonal entry near zero (r² ≤ 1e-12·L_kk²),
//   - more than maxDowndates downdates have accumulated since the last full
//     factorization, or
//   - the caller Resets the system.
//
// The Gram matrix and right-hand side themselves are always maintained
// exactly (± r·rᵀ and ± k·r in the accumulation order Workspace.LeastSquares
// uses), so a refactorization is always available and a system built purely
// by AddRow calls solves bit-identically to the from-scratch
// Workspace.LeastSquares. After RemoveRow the Gram entries carry the
// usual floating-point cancellation, which is what the documented 1e-9
// equivalence bound on the incremental path accounts for.
//
// Ownership: Solve returns a slice aliasing internal scratch, valid until
// the next call on the same NormalEq. Not safe for concurrent use.
type NormalEq struct {
	n    int
	gram Dense     // AᵀA, maintained exactly under add/remove
	rhs  []float64 // Aᵀb, maintained exactly under add/remove
	chol Dense     // cached lower-triangular factor of gram
	v    []float64 // rank-1 update scratch
	x    []float64 // solution scratch (returned, aliases internal storage)
	y    []float64 // forward-substitution scratch

	cholOK    bool    // chol currently factors gram
	downdates int     // downdates applied since the last full factorization
	peakDiag  float64 // largest Gram diagonal entry seen since Reset

	refactorizations   int
	incrementalUpdates int
}

// Reset clears the system to n unknowns with zero Gram matrix and
// right-hand side, dropping any cached factorization. Counters survive a
// Reset so long-running callers can report totals.
func (ne *NormalEq) Reset(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("mat: invalid NormalEq size %d", n))
	}
	ne.n = n
	ne.gram.Reshape(n, n)
	ne.rhs = grow(ne.rhs, n)
	for i := range ne.rhs {
		ne.rhs[i] = 0
	}
	ne.cholOK = false
	ne.downdates = 0
	ne.peakDiag = 0
}

// N returns the number of unknowns.
func (ne *NormalEq) N() int { return ne.n }

// AddRow accumulates one observation row a (with right-hand side k) into the
// normal equations: Gram += a·aᵀ, rhs += k·a. When a factorization is
// cached it is kept current with a rank-1 Cholesky update, which always
// succeeds. Panics if len(a) != N(); rows are copied, the caller keeps
// ownership of a.
func (ne *NormalEq) AddRow(a []float64, k float64) {
	if len(a) != ne.n {
		panic(fmt.Sprintf("mat: NormalEq.AddRow row length %d, want %d", len(a), ne.n))
	}
	// Accumulate in the exact order Dense.gramInto / tMulVecInto use for a
	// single row, so build-by-AddRow matches build-by-Gram bitwise.
	for ai, ra := range a {
		if ra == 0 {
			continue
		}
		oa := ne.gram.data[ai*ne.n : (ai+1)*ne.n]
		for b, rb := range a {
			oa[b] += ra * rb
		}
	}
	if k != 0 {
		for j, r := range a {
			ne.rhs[j] += r * k
		}
	}
	for i := 0; i < ne.n; i++ {
		if d := ne.gram.At(i, i); d > ne.peakDiag {
			ne.peakDiag = d
		}
	}
	if ne.cholOK {
		ne.cholUpdate(a)
		ne.incrementalUpdates++
	}
}

// DriftRatio reports how far the accumulated system has shrunk below its
// historical peak: the largest Gram diagonal entry seen since Reset divided
// by the current largest diagonal entry (+Inf when the current diagonal is
// non-positive). Row removal cancels contributions rather than erasing
// them, so the Gram entries carry absolute rounding error on the order of
// machine epsilon times the PEAK magnitude; once the live magnitude falls
// far below that peak, the maintained system has irrecoverably lost
// relative accuracy — refactorizing cannot help, because the error is in
// the Gram matrix itself. Callers that keep the raw rows (the sliding-
// window sessions do) should rebuild from scratch when this ratio grows
// past ~1e3. Windows whose samples have comparable magnitudes — the steady
// streaming case — keep the ratio near 1 indefinitely.
func (ne *NormalEq) DriftRatio() float64 {
	var cur float64
	for i := 0; i < ne.n; i++ {
		if d := ne.gram.At(i, i); d > cur {
			cur = d
		}
	}
	if cur <= 0 {
		return math.Inf(1)
	}
	return ne.peakDiag / cur
}

// RemoveRow removes an observation row previously passed to AddRow:
// Gram −= a·aᵀ, rhs −= k·a. The cached factorization is downdated in place;
// when the downdate hits the near-singular guard or the downdate budget is
// exhausted, the factor is dropped and the next Solve refactorizes from the
// exactly-maintained Gram matrix. Panics if len(a) != N().
func (ne *NormalEq) RemoveRow(a []float64, k float64) {
	if len(a) != ne.n {
		panic(fmt.Sprintf("mat: NormalEq.RemoveRow row length %d, want %d", len(a), ne.n))
	}
	for ai, ra := range a {
		if ra == 0 {
			continue
		}
		oa := ne.gram.data[ai*ne.n : (ai+1)*ne.n]
		for b, rb := range a {
			oa[b] -= ra * rb
		}
	}
	if k != 0 {
		for j, r := range a {
			ne.rhs[j] -= r * k
		}
	}
	if ne.cholOK {
		if ne.downdates >= maxDowndates || !ne.cholDowndate(a) {
			ne.cholOK = false
			return
		}
		ne.downdates++
		ne.incrementalUpdates++
	}
}

// cholUpdate applies the rank-1 update chol(G) → chol(G + a·aᵀ) in place
// (LINPACK dchud, Givens form). Always succeeds for a valid factor.
func (ne *NormalEq) cholUpdate(a []float64) {
	l := &ne.chol
	n := ne.n
	v := append(ne.v[:0], a...)
	ne.v = v
	for k := 0; k < n; k++ {
		lkk := l.At(k, k)
		r := math.Sqrt(lkk*lkk + v[k]*v[k])
		c := r / lkk
		s := v[k] / lkk
		l.Set(k, k, r)
		for i := k + 1; i < n; i++ {
			lik := (l.At(i, k) + s*v[i]) / c
			l.Set(i, k, lik)
			v[i] = c*v[i] - s*lik
		}
	}
}

// cholDowndate applies the hyperbolic rank-1 downdate chol(G) → chol(G −
// a·aᵀ) in place (LINPACK dchdd). It reports false — leaving the factor in
// an undefined state the caller must discard — when a downdated diagonal
// square falls to within downdateTolFactor of the original, i.e. the
// downdated matrix is no longer safely positive definite.
func (ne *NormalEq) cholDowndate(a []float64) bool {
	l := &ne.chol
	n := ne.n
	v := append(ne.v[:0], a...)
	ne.v = v
	for k := 0; k < n; k++ {
		lkk := l.At(k, k)
		r2 := lkk*lkk - v[k]*v[k]
		if r2 <= downdateTolFactor*lkk*lkk || math.IsNaN(r2) {
			return false
		}
		r := math.Sqrt(r2)
		c := r / lkk
		s := v[k] / lkk
		l.Set(k, k, r)
		for i := k + 1; i < n; i++ {
			lik := (l.At(i, k) - s*v[i]) / c
			l.Set(i, k, lik)
			v[i] = c*v[i] - s*lik
		}
	}
	return true
}

// factorize (re)computes the Cholesky factor from the exactly-maintained
// Gram matrix.
func (ne *NormalEq) factorize() error {
	ne.chol.Reshape(ne.n, ne.n)
	if err := choleskyInto(&ne.chol, &ne.gram); err != nil {
		ne.cholOK = false
		return err
	}
	ne.cholOK = true
	ne.downdates = 0
	ne.refactorizations++
	return nil
}

// Solve returns the least-squares solution of the accumulated system,
// reusing the cached factorization when one is current and refactorizing
// from the Gram matrix otherwise. It returns ErrNotSPD when the Gram matrix
// is not numerically SPD (rank-deficient geometry) — callers fall back to
// QR over the raw rows, exactly as the allocating LeastSquares path does.
// The returned slice aliases internal scratch, valid until the next call.
func (ne *NormalEq) Solve() ([]float64, error) {
	if !ne.cholOK {
		if err := ne.factorize(); err != nil {
			return nil, err
		}
	}
	ne.x = grow(ne.x, ne.n)
	ne.y = grow(ne.y, ne.n)
	choleskySolveFactorInto(ne.x, ne.y, &ne.chol, ne.rhs)
	return ne.x, nil
}

// ConditionEst returns the Cholesky-diagonal condition estimate
// max|L_ii|/min|L_ii| of the accumulated coefficient matrix — the same
// estimate Workspace.ConditionEst reports for the corresponding tall system —
// or +Inf when the Gram matrix is not numerically SPD.
func (ne *NormalEq) ConditionEst() float64 {
	if !ne.cholOK {
		if err := ne.factorize(); err != nil {
			return math.Inf(1)
		}
	}
	return cholDiagRatio(&ne.chol)
}

// Refactorizations returns how many full Cholesky factorizations this
// system has performed (initial factorizations and conditioning fallbacks).
func (ne *NormalEq) Refactorizations() int { return ne.refactorizations }

// IncrementalUpdates returns how many rank-1 update/downdate operations
// have been applied to a cached factor instead of refactorizing.
func (ne *NormalEq) IncrementalUpdates() int { return ne.incrementalUpdates }
