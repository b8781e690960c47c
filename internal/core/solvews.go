package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/mat"
)

// SolveWorkspace is the caller-owned scratch for SolveSystemInto. One
// workspace serves any number of sequential solves; after the first call
// sizes the buffers, a steady stream of same-shaped systems solves with
// zero heap allocations. A workspace must not be shared between goroutines
// without external serialization — stream sessions own one each.
//
// The zero value is ready to use.
type SolveWorkspace struct {
	ls      mat.Workspace
	reduced mat.Dense
	keep    []int
	x       []float64 // current iterate (owned copy, survives ls scratch reuse)
	weights []float64
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// SolveSystemInto is the workspace form of SolveSystem: identical
// arithmetic, routed through ws scratch, with the result written into sol.
// The Solution's slices (Residuals, Weights, RefDistances) are owned by sol
// itself — they are appended into sol's existing backing arrays, never
// aliased to workspace scratch — so callers may retain or mutate a Solution
// freely without corrupting later solves that reuse the same workspace.
// SolveSystem delegates here, which keeps the two entry points bit-identical
// by construction.
func SolveSystemInto(ws *SolveWorkspace, sys *System, opts SolveOptions, sol *Solution) error {
	span := opts.Trace.SpanAt(opts.traceSpan())
	defer span.End()
	numRefs := sys.NumRefs
	if numRefs <= 0 {
		numRefs = 1
	}
	nCols := sys.Dim + numRefs
	if sys.A.Cols() != nCols {
		return fmt.Errorf("core: system has %d columns, want %d: %w",
			sys.A.Cols(), nCols, mat.ErrShape)
	}
	rows := sys.A.Rows()

	// Detect zero coordinate columns relative to the matrix scale.
	scale := sys.A.MaxAbs()
	if scale == 0 {
		return ErrDegenerateGeometry
	}
	tol := 1e-9 * scale
	ws.keep = ws.keep[:0]
	known := [3]bool{}
	for c := 0; c < sys.Dim; c++ {
		colMax := 0.0
		for r := 0; r < rows; r++ {
			if v := math.Abs(sys.A.At(r, c)); v > colMax {
				colMax = v
			}
		}
		if colMax > tol {
			ws.keep = append(ws.keep, c)
			known[c] = true
		}
	}
	if len(ws.keep) == 0 {
		return ErrDegenerateGeometry
	}
	for r := 0; r < numRefs; r++ {
		ws.keep = append(ws.keep, sys.Dim+r) // reference-distance columns always kept
	}

	a := sys.A
	if len(ws.keep) != nCols {
		ws.reduced.Reshape(rows, len(ws.keep))
		for r := 0; r < rows; r++ {
			for ci, c := range ws.keep {
				ws.reduced.Set(r, ci, sys.A.At(r, c))
			}
		}
		a = &ws.reduced
	}

	if rows < len(ws.keep) {
		return ErrTooFewObservations
	}

	x0, err := ws.ls.LeastSquares(a, sys.K)
	if err != nil {
		if errors.Is(err, mat.ErrSingular) {
			return fmt.Errorf("%w: %v", ErrDegenerateGeometry, err)
		}
		return fmt.Errorf("least squares: %w", err)
	}
	// x0 aliases ls scratch that the IRLS calls below overwrite; keep the
	// iterate in workspace-owned storage.
	ws.x = append(ws.x[:0], x0...)

	// One condition estimate per solve, on the unweighted reduced system —
	// cheap next to the IRWLS loop and enough to flag near-degenerate
	// geometry in both the Solution and every iteration's trace event.
	condEst := ws.ls.ConditionEst(a)

	ws.weights = growFloats(ws.weights, rows)
	for i := range ws.weights {
		ws.weights[i] = 1
	}
	iterations, err := irlsRefine(&ws.ls, a, sys.K, &ws.x, ws.weights, opts, condEst)
	if err != nil {
		return err
	}

	fillSolution(sol, sys.Dim, numRefs, known, ws.keep, a, sys.K, ws.x, ws.weights,
		iterations, condEst)
	return nil
}

// irlsRefine runs the IRWLS refinement of Eqs. 14–16 over the reduced
// system: weights exp(−d²/2) from standardised residuals, re-solve, repeat
// until the iterate moves less than the tolerance. Each iteration is one
// fused mat.Workspace.Reweight step. xp points at the workspace-owned
// iterate and is updated in place (the slice may be re-appended); weights
// must be pre-initialised to ones and is overwritten. Both SolveSystemInto
// and the line session route through this one loop, which is what keeps
// their IRLS arithmetic identical. The residual norm each trace event
// carries is the step's own ResNorm, so tracing adds no pass over the rows.
func irlsRefine(ls *mat.Workspace, a *mat.Dense, k []float64, xp *[]float64,
	weights []float64, opts SolveOptions, condEst float64) (int, error) {
	iterations := 0
	if !opts.Weighted {
		return 0, nil
	}
	x := *xp
	defer func() { *xp = x }()
	for iterations < opts.maxIter() {
		rw, err := ls.Reweight(a, k, x, weights, WeightFloor)
		if err != nil {
			if errors.Is(err, mat.ErrSingular) {
				return iterations, fmt.Errorf("%w: %v", ErrDegenerateGeometry, err)
			}
			return iterations, fmt.Errorf("weighted least squares: %w", err)
		}
		if rw.X == nil {
			break // exact fit (σ = 0): all weights stay 1
		}
		iterations++
		if opts.Trace != nil {
			opts.Trace.IRLSIter(opts.traceSpan(), iterations, rw.ResNorm, rw.FloorHits, condEst)
		}
		moved := 0.0
		for i := range x {
			if d := math.Abs(rw.X[i] - x[i]); d > moved {
				moved = d
			}
		}
		x = append(x[:0], rw.X...)
		if moved < opts.tol() {
			break
		}
	}
	return iterations, nil
}

// fillSolution populates sol from the reduced solve results, copying every
// slice into sol-owned backing storage. Shared by SolveSystemInto and the
// incremental line session so the scatter/summary arithmetic has exactly one
// definition.
//
// One pass over the rows of the reduced system a·x ≈ k writes the final
// residuals r = a·x − k and every summary of them: FinalResidual and
// RMSResidual share one Σr², and MeanAbsResidual and the weighted mean
// each keep their own sum in row order, so every value is bit-identical
// to computing the residuals first and summarising them in separate
// passes.
func fillSolution(sol *Solution, dim, numRefs int, known [3]bool, keep []int,
	a *mat.Dense, k, x, weights []float64, iterations int, condEst float64) {
	rows, n := a.Rows(), a.Cols()
	sol.Known = known
	sol.Dim = dim
	sol.Residuals = growFloats(sol.Residuals, rows)
	sol.Weights = append(sol.Weights[:0], weights...)
	sol.Iterations = iterations
	sol.ConditionEstimate = condEst

	var ss, absSum, wSum, wrSum float64
	for i := 0; i < rows; i++ {
		var s float64
		for j, xj := range x[:n] {
			s += a.At(i, j) * xj
		}
		r := s - k[i]
		sol.Residuals[i] = r
		ss += r * r
		absSum += math.Abs(r)
		wSum += weights[i]
		wrSum += weights[i] * r
	}
	sol.FinalResidual = math.Sqrt(ss)
	sol.MeanResidual = 0
	if wSum > 0 {
		sol.MeanResidual = wrSum / wSum
	}
	sol.MeanAbsResidual, sol.RMSResidual = 0, 0
	if rows > 0 {
		sol.MeanAbsResidual = absSum / float64(rows)
		sol.RMSResidual = math.Sqrt(ss / float64(rows))
	}

	// Scatter the reduced solution back onto (x, y, z, d_r...).
	coords := [3]float64{math.NaN(), math.NaN(), math.NaN()}
	sol.RefDistances = growFloats(sol.RefDistances, numRefs)
	for i := range sol.RefDistances {
		sol.RefDistances[i] = 0
	}
	for xi, c := range keep {
		if c >= dim {
			sol.RefDistances[c-dim] = x[xi]
		} else {
			coords[c] = x[xi]
		}
	}
	sol.RefDistance = sol.RefDistances[0]
	if dim == 2 {
		coords[2] = 0
	}
	sol.Position = geom.Vec3{X: coords[0], Y: coords[1], Z: coords[2]}
}
