package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/mat"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/stats"
)

const (
	// defaultRebuildEvery bounds how many consecutive slides a LineSession
	// accepts before re-anchoring from scratch, regardless of drift. It
	// caps incremental rounding accumulation and keeps the reported
	// RefDistance's anchor from receding arbitrarily far behind the window.
	defaultRebuildEvery = 256
	// driftRebuildRatio triggers a re-anchor when the maintained normal
	// equations have decayed this far below their historical peak magnitude
	// (see mat.NormalEq.DriftRatio): past it, the cancellation error frozen
	// into the Gram entries threatens the 1e-9 equivalence bound.
	driftRebuildRatio = 1e3
)

// lineKeep is the reduced-column map of every 2-D line solve: the local
// frame zeroes the y column, so the kept columns are x and d_r.
var lineKeep = []int{0, 2}

// linePair is one cached radical-line equation: the pair's absolute sample
// indices plus its reduced row [α, ω] and right-hand side κ. Rows are cached
// because removal from the normal equations must subtract exactly the values
// that were added, and because retained pairs' coefficients are invariant
// under a window slide (positions and Δd of retained samples don't change).
type linePair struct {
	i, j int
	a    [2]float64
	k    float64
}

// LineSessionStats counts the work a session has done, for tests and
// observability.
type LineSessionStats struct {
	// Solves is the number of successful Locate calls.
	Solves int
	// Rebuilds counts full re-anchors (first call, slide-detection misses,
	// drift and budget triggers).
	Rebuilds int
	// Slides counts Locate calls served incrementally.
	Slides int
	// Refactorizations and IncrementalUpdates are the underlying normal-
	// equation counters (mat.NormalEq).
	Refactorizations   int
	IncrementalUpdates int
}

// LineSession is the line solver of Sec. III-C-1 for sliding windows: a
// stateful solver that recognises when the current window is the previous
// one slid forward (samples evicted at the front, appended at the back) and
// reuses the previous window's pair rows and normal-equation factorization
// instead of rebuilding the system from scratch.
//
// A rebuild anchors a local line frame at the window midpoint, scans the
// separation pairs, accumulates their reduced [α, ω] rows straight into the
// normal equations, solves, refines with IRWLS, and recovers the
// perpendicular coordinate as the median of the per-sample discriminants,
// selected in place (the same order statistics a full sort would pick).
//
// Equivalence contract:
//
//   - A rebuild solve (the first call, or any call where slide detection
//     fails) is bit-identical to Locate2DLineIntervals on the same window by
//     construction: Locate2DLineIntervals is a rebuild solve on a pooled
//     session.
//   - A slide solve agrees with Locate2DLineIntervals to within ~1e-9 on
//     Position for well-conditioned windows of collinear samples in a
//     z = const plane. Two effects contribute the difference: the session
//     keeps its anchor frame (origin, reference sample) from the last
//     rebuild while the batch path re-anchors at every window's midpoint —
//     the solutions map between the frames exactly in real arithmetic — and
//     the factorization is maintained by rank-1 update/downdate rather than
//     recomputed. RefDistance is reported relative to the session's anchor
//     reference sample, not the current window midpoint.
//   - Sessions re-anchor automatically every 256 slides, when the
//     normal equations drift past mat.NormalEq's documented bound, when the
//     anchor reference sample is evicted, and whenever the incoming window
//     is not a forward slide of the previous one (including any smoothing
//     that rewrites overlap samples — feed unsmoothed profiles).
//
// Steady-state slides perform zero heap allocations. A session must not be
// shared between goroutines; the stream engine owns one per tag session.
type LineSession struct {
	lambda       float64
	intervals    []float64
	positiveSide bool

	// rebuildEvery is the re-anchor cadence in slides, defaultRebuildEvery
	// outside tests.
	rebuildEvery int

	// Anchor frame, fixed between rebuilds.
	valid  bool
	origin geom.Vec3
	u, v   geom.Vec2
	base   int // absolute index of window[0]
	refAbs int // absolute index of the anchor reference sample

	world []geom.Vec3 // world positions of the current window (slide matching)
	prof  Profile     // local-frame profile: Obs=(pu,0,0), session-frame θ, cached Δd

	pairs [][]linePair // per interval, sorted by first index
	next  [][]linePair // scratch buffers for rescans (double-buffered)

	ne mat.NormalEq
	ls mat.Workspace
	a  mat.Dense // assembled reduced system (rows×2) for IRLS/residuals
	kv []float64
	// assembled reports that a and kv hold the current pair rows, with
	// colMax their column maxima |α| and |ω|; a rebuild writes them as it
	// computes the rows, a slide leaves them for solve to assemble.
	assembled bool
	colMax    [2]float64
	x         []float64
	wts       []float64
	dsc       []float64 // median-recovery scratch

	sinceRebuild int
	stats        LineSessionStats
}

// NewLineSession returns an incremental sliding-window solver with the same
// parameters as Locate2DLineIntervals. The intervals are copied.
func NewLineSession(lambda float64, intervals []float64, positiveSide bool) (*LineSession, error) {
	if err := checkLineParams(lambda, intervals); err != nil {
		return nil, err
	}
	s := &LineSession{rebuildEvery: defaultRebuildEvery}
	s.configure(lambda, intervals, positiveSide)
	return s, nil
}

// checkLineParams validates the parameters shared by NewLineSession and
// Locate2DLineIntervals.
func checkLineParams(lambda float64, intervals []float64) error {
	if lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return ErrBadLambda
	}
	if len(intervals) == 0 {
		return fmt.Errorf("core: at least one interval required")
	}
	for _, iv := range intervals {
		if iv <= 0 {
			return fmt.Errorf("core: interval %v must be positive", iv)
		}
	}
	return nil
}

// configure (re)parameterises the session, copying the intervals into
// session-owned storage and keeping its scratch buffers, and drops the
// anchor so the next solve rebuilds.
func (s *LineSession) configure(lambda float64, intervals []float64, positiveSide bool) {
	s.lambda = lambda
	s.intervals = append(s.intervals[:0], intervals...)
	s.positiveSide = positiveSide
	s.prof.Lambda = lambda
	n := len(intervals)
	if cap(s.pairs) < n {
		s.pairs = make([][]linePair, n)
		s.next = make([][]linePair, n)
	}
	s.pairs, s.next = s.pairs[:n], s.next[:n]
	s.valid = false
}

// Stats returns the session's work counters.
func (s *LineSession) Stats() LineSessionStats {
	st := s.stats
	st.Refactorizations = s.ne.Refactorizations()
	st.IncrementalUpdates = s.ne.IncrementalUpdates()
	return st
}

// Locate estimates the target position from the window, writing the result
// into sol (whose slices are reused across calls — the caller owns sol and
// may retain or mutate it freely between calls). The window is the full
// current sample set, exactly as Locate2DLineIntervals would receive it.
func (s *LineSession) Locate(win []PosPhase, opts SolveOptions, sol *Solution) error {
	if len(win) < 4 {
		return ErrTooFewObservations
	}
	first, last := win[0].Pos.XY(), win[len(win)-1].Pos.XY()
	dir := last.Sub(first)
	if dir.Norm() == 0 {
		return ErrDegenerateGeometry
	}

	slid := false
	if s.valid && s.sinceRebuild < s.rebuildEvery && s.ne.DriftRatio() <= driftRebuildRatio {
		slid = s.trySlide(win)
	}
	if slid {
		s.sinceRebuild++
		s.stats.Slides++
	} else {
		if err := s.rebuild(win, dir); err != nil {
			return err
		}
	}
	return s.finish(opts, sol)
}

// finish solves the session's current system into sol, recovers the
// perpendicular coordinate, and maps the estimate into world coordinates.
func (s *LineSession) finish(opts SolveOptions, sol *Solution) error {
	if err := s.solve(opts, sol); err != nil {
		return err
	}
	if err := s.recoverMissingMedian(sol); err != nil {
		return err
	}
	// Map the line-frame estimate back into world coordinates.
	est := s.origin.XY().
		Add(s.u.Scale(sol.Position.X)).
		Add(s.v.Scale(sol.Position.Y))
	sol.Position = est.XYZ(s.origin.Z)
	s.stats.Solves++
	return nil
}

// trySlide checks whether win is the previous window slid forward — an
// eviction prefix followed by the exact retained overlap (bit-equal
// positions, phases shifted by one global unwrap constant) and appended new
// samples — and commits the incremental update when it is. It reports false
// (leaving the session unchanged) when the window must be rebuilt.
func (s *LineSession) trySlide(win []PosPhase) bool {
	m := len(s.prof.Obs)
	k := -1
	for c := 0; c <= m-2; c++ {
		if s.world[c] == win[0].Pos && m-c <= len(win) {
			k = c
			break
		}
	}
	if k < 0 {
		return false
	}
	overlap := m - k
	if s.refAbs-(s.base+k) < 0 {
		return false // anchor reference sample would be evicted
	}
	// The window re-unwraps from its own first sample, so the overlap's
	// phases differ from the stored session-frame phases by one global
	// constant (a 2π multiple plus the anchor shift). Estimate it from the
	// first overlap sample and require it to be constant across the rest.
	c0 := s.prof.Obs[k].Theta - win[0].Theta
	for i := 1; i < overlap; i++ {
		if s.world[k+i] != win[i].Pos {
			return false
		}
		if d := math.Abs(s.prof.Obs[k+i].Theta - (win[i].Theta + c0)); d > 1e-9*math.Max(1, math.Abs(win[i].Theta)) {
			return false
		}
	}
	for i := overlap; i < len(win); i++ {
		o := win[i]
		if !o.Pos.IsFinite() || math.IsNaN(o.Theta) || math.IsInf(o.Theta, 0) {
			return false // rebuild path reports ErrNonFiniteInput with the index
		}
	}

	// Commit: evict the k oldest samples, append the new tail.
	if k > 0 {
		s.base += k
		s.world = s.world[:copy(s.world, s.world[k:])]
		s.prof.Obs = s.prof.Obs[:copy(s.prof.Obs, s.prof.Obs[k:])]
		s.prof.deltaD = s.prof.deltaD[:copy(s.prof.deltaD, s.prof.deltaD[k:])]
	}
	s.prof.RefIndex = s.refAbs - s.base
	refTheta := s.prof.Obs[s.prof.RefIndex].Theta
	for i := overlap; i < len(win); i++ {
		o := win[i]
		pu := o.Pos.XY().Sub(s.origin.XY()).Dot(s.u)
		th := o.Theta + c0 // translate into the session's phase frame
		s.world = append(s.world, o.Pos)
		s.prof.Obs = append(s.prof.Obs, PosPhase{Pos: geom.V3(pu, 0, 0), Theta: th})
		s.prof.deltaD = append(s.prof.deltaD, rf.DistanceOfPhaseDelta(th-refTheta, s.lambda))
	}
	s.diffPairs()
	s.assembled = false
	return true
}

// rebuild re-anchors the session on win: origin at the window midpoint, û
// from first to last sample, reference sample at the midpoint index. One
// pass over the samples validates them, projects them into the line frame
// and computes their Δd; one pass over the pairs computes each row once
// and writes it to the pair cache, the normal equations and the assembled
// system. A non-finite sample fails the rebuild at its index and leaves
// the session to rebuild on its next call.
func (s *LineSession) rebuild(win []PosPhase, dir geom.Vec2) error {
	s.valid = false
	s.u = dir.Unit()
	s.v = s.u.Perp()
	s.origin = win[len(win)/2].Pos
	s.base = 0
	s.refAbs = len(win) / 2
	s.prof.RefIndex = s.refAbs

	s.world = s.world[:0]
	s.prof.Obs = s.prof.Obs[:0]
	s.prof.deltaD = s.prof.deltaD[:0]
	refTheta := win[s.refAbs].Theta
	for i, o := range win {
		if !o.Pos.IsFinite() || math.IsNaN(o.Theta) || math.IsInf(o.Theta, 0) {
			return fmt.Errorf("core: observation %d is %v: %w", i, o, ErrNonFiniteInput)
		}
		pu := o.Pos.XY().Sub(s.origin.XY()).Dot(s.u)
		s.world = append(s.world, o.Pos)
		s.prof.Obs = append(s.prof.Obs, PosPhase{Pos: geom.V3(pu, 0, 0), Theta: o.Theta})
		s.prof.deltaD = append(s.prof.deltaD, rf.DistanceOfPhaseDelta(o.Theta-refTheta, s.lambda))
	}

	nPairs := 0
	for ivi, iv := range s.intervals {
		s.pairs[ivi] = s.scanPairs(iv, s.pairs[ivi][:0])
		nPairs += len(s.pairs[ivi])
	}
	s.ne.Reset(2)
	s.kv = growFloats(s.kv, nPairs)
	if nPairs > 0 {
		s.a.Reshape(nPairs, 2)
	}
	s.colMax = [2]float64{}
	r := 0
	for _, pl := range s.pairs {
		for pi := range pl {
			p := &pl[pi]
			s.addPair(p)
			s.setRow(r, p)
			r++
		}
	}
	s.assembled = true
	s.valid = true
	s.sinceRebuild = 0
	s.stats.Rebuilds++
	return nil
}

// setRow writes the cached row of p as row r of the assembled system and
// folds it into the column maxima.
func (s *LineSession) setRow(r int, p *linePair) {
	s.a.Set(r, 0, p.a[0])
	s.a.Set(r, 1, p.a[1])
	s.kv[r] = p.k
	if v := math.Abs(p.a[0]); v > s.colMax[0] {
		s.colMax[0] = v
	}
	if v := math.Abs(p.a[1]); v > s.colMax[1] {
		s.colMax[1] = v
	}
}

// scanPairs runs the SeparationPairs greedy scan (shared monotone second
// index, first qualifying partner, at most one pair per i) over the current
// local positions, appending pairs with absolute indices into out.
func (s *LineSession) scanPairs(sep float64, out []linePair) []linePair {
	n := len(s.prof.Obs)
	j := 0
	for i := 0; i < n; i++ {
		if j <= i {
			j = i + 1
		}
		for j < n && s.prof.Obs[i].Pos.Dist(s.prof.Obs[j].Pos) < sep {
			j++
		}
		if j >= n {
			break
		}
		out = append(out, linePair{i: s.base + i, j: s.base + j})
	}
	return out
}

// addPair computes and caches the pair's reduced equation row via the shared
// equation2D kernel, then accumulates it into the normal equations.
func (s *LineSession) addPair(p *linePair) {
	row, rhs := s.prof.equation2D(Pair{I: p.i - s.base, J: p.j - s.base})
	p.a = [2]float64{row[0], row[2]}
	p.k = rhs
	s.ne.AddRow(p.a[:], p.k)
}

// diffPairs rescans the pair lists over the slid window and applies the
// difference to the normal equations: rows for pairs that left the window
// are downdated out, rows for new pairs are updated in, retained pairs keep
// their cached coefficients (which a slide provably does not change).
func (s *LineSession) diffPairs() {
	for ivi, iv := range s.intervals {
		fresh := s.scanPairs(iv, s.next[ivi][:0])
		old := s.pairs[ivi]
		oi, ni := 0, 0
		for oi < len(old) || ni < len(fresh) {
			switch {
			case ni >= len(fresh):
				s.ne.RemoveRow(old[oi].a[:], old[oi].k)
				oi++
			case oi >= len(old):
				s.addPair(&fresh[ni])
				ni++
			case old[oi].i == fresh[ni].i && old[oi].j == fresh[ni].j:
				fresh[ni].a, fresh[ni].k = old[oi].a, old[oi].k
				oi++
				ni++
			case old[oi].i < fresh[ni].i:
				s.ne.RemoveRow(old[oi].a[:], old[oi].k)
				oi++
			case fresh[ni].i < old[oi].i:
				s.addPair(&fresh[ni])
				ni++
			default: // same first index, different partner: replace
				s.ne.RemoveRow(old[oi].a[:], old[oi].k)
				s.addPair(&fresh[ni])
				oi++
				ni++
			}
		}
		s.pairs[ivi], s.next[ivi] = fresh, old // double-buffer swap
	}
}

// solve runs the reduced least-squares solve over the cached pair rows,
// mirroring SolveSystem's degeneracy checks and IRLS loop, with the initial
// factorization served incrementally by the normal equations.
func (s *LineSession) solve(opts SolveOptions, sol *Solution) error {
	span := opts.Trace.SpanAt(opts.traceSpan())
	defer span.End()
	nPairs := 0
	for _, pl := range s.pairs {
		nPairs += len(pl)
	}
	if nPairs < 3 {
		return fmt.Errorf("core: intervals %v leave %d pairs: %w",
			s.intervals, nPairs, ErrTooFewObservations)
	}

	// Assemble the reduced system for the IRLS loop and residuals (a
	// rebuild already has), and run the same scale/column checks
	// SolveSystem applies to the full matrix (whose y column is
	// identically zero in the line frame).
	if !s.assembled {
		s.a.Reshape(nPairs, 2)
		s.kv = growFloats(s.kv, nPairs)
		s.colMax = [2]float64{}
		r := 0
		for _, pl := range s.pairs {
			for pi := range pl {
				s.setRow(r, &pl[pi])
				r++
			}
		}
		s.assembled = true
	}
	colMaxX, scale := s.colMax[0], s.colMax[1]
	if colMaxX > scale {
		scale = colMaxX
	}
	if scale == 0 {
		return ErrDegenerateGeometry
	}
	if colMaxX <= 1e-9*scale {
		return ErrDegenerateGeometry
	}

	x0, err := s.ne.Solve()
	if err != nil {
		// Not SPD: fall back to the same Cholesky-then-QR chain the batch
		// path uses over the assembled rows.
		x0, err = s.ls.LeastSquares(&s.a, s.kv)
		if err != nil {
			if errors.Is(err, mat.ErrSingular) {
				return fmt.Errorf("%w: %v", ErrDegenerateGeometry, err)
			}
			return fmt.Errorf("least squares: %w", err)
		}
	}
	s.x = append(s.x[:0], x0...)
	condEst := s.ne.ConditionEst()

	s.wts = growFloats(s.wts, nPairs)
	for i := range s.wts {
		s.wts[i] = 1
	}
	iterations, err := irlsRefine(&s.ls, &s.a, s.kv, &s.x, s.wts, opts, condEst)
	if err != nil {
		return err
	}
	fillSolution(sol, 2, 1, [3]bool{true, false, false}, lineKeep,
		&s.a, s.kv, s.x, s.wts, iterations, condEst)
	return nil
}

// recoverMissingMedian is the in-place form of Solution.RecoverMissingMedian
// for the line session's fixed shape (Dim 2, missing coordinate y, local
// frame with all sample y exactly zero): same discriminants, same
// stats.PercentileInPlace median, same negative-median tolerance.
func (s *LineSession) recoverMissingMedian(sol *Solution) error {
	n := s.prof.Len()
	if n < 3 {
		return sol.RecoverMissing(s.prof.RefPos(), s.positiveSide)
	}
	s.dsc = growFloats(s.dsc, n)
	estX := sol.Position.X
	for t := 0; t < n; t++ {
		dt := sol.RefDistance + s.prof.deltaD[t]
		d := estX - s.prof.Obs[t].Pos.X
		s.dsc[t] = dt*dt - d*d
	}
	// Median by in-place selection, not a copy and a full sort: O(n), which
	// matters because this runs on every streamed re-solve. n ≥ 3, so the
	// only error PercentileInPlace returns cannot occur.
	med, _ := stats.PercentileInPlace(s.dsc, 50)
	if med < 0 {
		if med < -0.02*sol.RefDistance*sol.RefDistance {
			return ErrNoSolution
		}
		med = 0
	}
	off := math.Sqrt(med)
	if !s.positiveSide {
		off = -off
	}
	sol.Position = geom.Vec3{X: sol.Position.X, Y: off, Z: sol.Position.Z}
	sol.Known[1] = true
	return nil
}
