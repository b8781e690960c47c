package core

import (
	"errors"
	"math"
	"testing"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/stats"
)

const testLambda = 0.3256 // ~920.625 MHz

// genObs produces exact unwrapped observations for a target at ant, with
// optional Gaussian phase noise and a constant phase offset.
func genObs(ant geom.Vec3, positions []geom.Vec3, noiseStd, offset float64, rng *stats.RNG) []PosPhase {
	obs := make([]PosPhase, len(positions))
	for i, p := range positions {
		theta := rf.PhaseOfDistance(ant.Dist(p), testLambda) + offset
		if noiseStd > 0 {
			theta += rng.Normal(0, noiseStd)
		}
		obs[i] = PosPhase{Pos: p, Theta: theta}
	}
	return obs
}

// circlePositions returns n points on a circle of the given radius in the
// z = zc plane.
func circlePositions(center geom.Vec3, radius float64, n int) []geom.Vec3 {
	out := make([]geom.Vec3, n)
	for i := range out {
		a := 2 * math.Pi * float64(i) / float64(n)
		out[i] = geom.V3(
			center.X+radius*math.Cos(a),
			center.Y+radius*math.Sin(a),
			center.Z,
		)
	}
	return out
}

// linePositions returns n evenly spaced points from a to b.
func linePositions(a, b geom.Vec3, n int) []geom.Vec3 {
	out := make([]geom.Vec3, n)
	for i := range out {
		out[i] = a.Lerp(b, float64(i)/float64(n-1))
	}
	return out
}

func TestPreprocess(t *testing.T) {
	ant := geom.V3(0.3, 1, 0)
	positions := linePositions(geom.V3(-0.5, 0, 0), geom.V3(0.5, 0, 0), 200)
	wrapped := make([]float64, len(positions))
	for i, p := range positions {
		wrapped[i] = rf.WrapPhase(rf.PhaseOfDistance(ant.Dist(p), testLambda))
	}
	obs, err := Preprocess(positions, wrapped, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Away from the boundary (where the smoothing window truncates),
	// unwrapped deltas must match true distance-induced deltas.
	base := 5
	for i := base + 1; i < len(obs)-base; i++ {
		wantDelta := rf.PhaseOfDistance(ant.Dist(positions[i]), testLambda) -
			rf.PhaseOfDistance(ant.Dist(positions[base]), testLambda)
		gotDelta := obs[i].Theta - obs[base].Theta
		if math.Abs(gotDelta-wantDelta) > 0.05 { // smoothing tolerance
			t.Fatalf("sample %d: delta %v, want %v", i, gotDelta, wantDelta)
		}
	}
	if _, err := Preprocess(positions[:2], wrapped, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Preprocess(positions, wrapped, 4); err == nil {
		t.Error("even smoothing window accepted")
	}
}

func TestProfileDeltaDist(t *testing.T) {
	ant := geom.V3(0, 1, 0)
	positions := linePositions(geom.V3(-0.3, 0, 0), geom.V3(0.3, 0, 0), 50)
	obs := genObs(ant, positions, 0, 1.234, nil)
	p, err := NewProfile(obs, testLambda)
	if err != nil {
		t.Fatal(err)
	}
	refD := ant.Dist(p.RefPos())
	for i := range positions {
		want := ant.Dist(positions[i]) - refD
		if math.Abs(p.DeltaDist(i)-want) > 1e-9 {
			t.Fatalf("Δd[%d] = %v, want %v", i, p.DeltaDist(i), want)
		}
	}
}

func TestProfileValidation(t *testing.T) {
	obs := genObs(geom.V3(0, 1, 0), linePositions(geom.V3(0, 0, 0), geom.V3(1, 0, 0), 5), 0, 0, nil)
	if _, err := NewProfile(obs, 0); !errors.Is(err, ErrBadLambda) {
		t.Errorf("zero lambda err = %v", err)
	}
	if _, err := NewProfile(obs[:1], testLambda); !errors.Is(err, ErrTooFewObservations) {
		t.Errorf("single obs err = %v", err)
	}
	if _, err := NewProfileRef(obs, testLambda, 5); err == nil {
		t.Error("out-of-range ref accepted")
	}
	if _, err := NewProfileRef(obs, testLambda, -1); err == nil {
		t.Error("negative ref accepted")
	}
}

func TestEquationSatisfiedByTruth(t *testing.T) {
	// The exact target position and reference distance must satisfy every
	// generated equation when phases are noiseless.
	ant := geom.V3(0.7, 0.9, 0.4)
	positions := []geom.Vec3{
		geom.V3(-0.3, 0, 0), geom.V3(0.1, -0.2, 0.1),
		geom.V3(0.3, 0.1, -0.2), geom.V3(0, 0.3, 0.2), geom.V3(-0.1, 0.2, 0.3),
	}
	obs := genObs(ant, positions, 0, 0.5, nil)
	p, err := NewProfile(obs, testLambda)
	if err != nil {
		t.Fatal(err)
	}
	dr := ant.Dist(p.RefPos())
	pairs := SubsampledAllPairs(len(obs), 100)
	sys, err := BuildSystem(p, pairs, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{ant.X, ant.Y, ant.Z, dr}
	for i, k := range sys.K {
		ri := -k
		for j, xj := range x {
			ri += sys.A.At(i, j) * xj
		}
		if math.Abs(ri) > 1e-9 {
			t.Fatalf("equation %d: A·x − k = %v", i, ri)
		}
	}
}

func TestBuildSystemValidation(t *testing.T) {
	obs := genObs(geom.V3(0, 1, 0), linePositions(geom.V3(0, 0, 0), geom.V3(1, 0, 0), 5), 0, 0, nil)
	p, err := NewProfile(obs, testLambda)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSystem(p, StridePairs(5, 1), 4); err == nil {
		t.Error("dim 4 accepted")
	}
	if _, err := BuildSystem(p, []Pair{{0, 1}}, 2); !errors.Is(err, ErrTooFewObservations) {
		t.Errorf("too-few-pairs err = %v", err)
	}
	if _, err := BuildSystem(p, []Pair{{0, 9}, {0, 1}, {1, 2}, {2, 3}}, 2); err == nil {
		t.Error("out-of-range pair accepted")
	}
	if _, err := BuildSystem(p, []Pair{{1, 1}, {0, 1}, {1, 2}, {2, 3}}, 2); err == nil {
		t.Error("self pair accepted")
	}
}

func TestSolve2DCircleNoiseless(t *testing.T) {
	// Paper Fig. 6 setup: circle radius 0.3 m, antenna 1 m away.
	for _, ant := range []geom.Vec3{
		geom.V3(1, 0, 0), geom.V3(0.7071, 0.7071, 0), geom.V3(0, 1, 0),
	} {
		positions := circlePositions(geom.V3(0, 0, 0), 0.3, 90)
		obs := genObs(ant, positions, 0, 0, nil)
		sol, err := Locate2D(obs, testLambda, StridePairs(len(obs), 22), SolveOptions{})
		if err != nil {
			t.Fatalf("ant %v: %v", ant, err)
		}
		if got := sol.Position.Dist(ant); got > 1e-6 {
			t.Errorf("ant %v: error %v m", ant, got)
		}
		wantDr := ant.Dist(obs[len(obs)/2].Pos)
		if math.Abs(sol.RefDistance-wantDr) > 1e-6 {
			t.Errorf("ant %v: d_r = %v, want %v", ant, sol.RefDistance, wantDr)
		}
		if !sol.FullyKnown() {
			t.Errorf("ant %v: coordinates not fully known", ant)
		}
	}
}

func TestSolve2DCircleNoisy(t *testing.T) {
	// With the paper's N(0, 0.1) noise the error should be sub-centimetre
	// on average.
	rng := stats.NewRNG(99)
	ant := geom.V3(1, 0, 0)
	var errsum float64
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		positions := circlePositions(geom.V3(0, 0, 0), 0.3, 180)
		obs := genObs(ant, positions, 0.1, 0, rng)
		sol, err := Locate2D(obs, testLambda, StridePairs(len(obs), 45), DefaultSolveOptions())
		if err != nil {
			t.Fatal(err)
		}
		errsum += sol.Position.Dist(ant)
	}
	// The shared reference-sample noise bounds accuracy from below; the
	// experiment harness additionally smooths, which the paper also does.
	if avg := errsum / trials; avg > 0.035 {
		t.Errorf("average error %v m, want < 3.5 cm", avg)
	}
}

func TestSolve3DNoiseless(t *testing.T) {
	ant := geom.V3(0.2, 0.9, 0.3)
	// Helix: genuine 3-D diversity.
	var positions []geom.Vec3
	for i := 0; i < 120; i++ {
		a := 4 * math.Pi * float64(i) / 120
		positions = append(positions, geom.V3(
			0.3*math.Cos(a), 0.3*math.Sin(a), 0.2*float64(i)/120))
	}
	obs := genObs(ant, positions, 0, 0, nil)
	sol, err := Locate3D(obs, testLambda, StridePairs(len(obs), 30), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Position.Dist(ant); got > 1e-6 {
		t.Errorf("error %v m", got)
	}
}

func TestLowerDimensionLinearTrajectory(t *testing.T) {
	// Paper Fig. 9 setup: tag from −0.3 to 0.3 on the x-axis, antenna at
	// (0.2, 1). The y column vanishes and is recovered through d_r.
	ant := geom.V3(0.2, 1, 0)
	positions := linePositions(geom.V3(-0.3, 0, 0), geom.V3(0.3, 0, 0), 100)
	obs := genObs(ant, positions, 0, 0, nil)
	p, err := NewProfile(obs, testLambda)
	if err != nil {
		t.Fatal(err)
	}
	pairs := SeparationPairs(positions, 0.2)
	sys, err := BuildSystem(p, pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveSystem(sys, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Known[1] {
		t.Fatal("y unexpectedly known for a linear x trajectory")
	}
	if math.IsNaN(sol.Position.X) || math.Abs(sol.Position.X-0.2) > 1e-6 {
		t.Fatalf("x = %v, want 0.2", sol.Position.X)
	}
	if err := sol.RecoverMissing(p.RefPos(), true); err != nil {
		t.Fatal(err)
	}
	if got := sol.Position.Dist(ant); got > 1e-6 {
		t.Errorf("error after recovery: %v m", got)
	}
	// The negative branch lands on the mirror image.
	sol2, err := SolveSystem(sys, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol2.RecoverMissing(p.RefPos(), false); err != nil {
		t.Fatal(err)
	}
	mirror := geom.V3(0.2, -1, 0)
	if got := sol2.Position.Dist(mirror); got > 1e-6 {
		t.Errorf("negative branch error: %v m", got)
	}
}

func TestRecoverMissingEdgeCases(t *testing.T) {
	sol := &Solution{
		Position:    geom.V3(0.5, math.NaN(), 0),
		Known:       [3]bool{true, false, false},
		Dim:         2,
		RefDistance: 0.3, // smaller than |x − x_r| = 0.5: no real solution
	}
	if err := sol.RecoverMissing(geom.V3(0, 0, 0), true); !errors.Is(err, ErrNoSolution) {
		t.Errorf("err = %v, want ErrNoSolution", err)
	}
	// Slight negative discriminant clamps to zero.
	sol2 := &Solution{
		Position:    geom.V3(0.5, math.NaN(), 0),
		Known:       [3]bool{true, false, false},
		Dim:         2,
		RefDistance: 0.4999,
	}
	if err := sol2.RecoverMissing(geom.V3(0, 0, 0), true); err != nil {
		t.Errorf("clamp failed: %v", err)
	}
	if math.Abs(sol2.Position.Y) > 0.03 {
		t.Errorf("clamped y = %v", sol2.Position.Y)
	}
	// Fully known: no-op.
	sol3 := &Solution{
		Position: geom.V3(1, 2, 0),
		Known:    [3]bool{true, true, false},
		Dim:      2,
	}
	if err := sol3.RecoverMissing(geom.V3(0, 0, 0), true); err != nil {
		t.Errorf("no-op recovery errored: %v", err)
	}
	// Two unknowns cannot be recovered.
	sol4 := &Solution{
		Known: [3]bool{true, false, false},
		Dim:   3,
	}
	if err := sol4.RecoverMissing(geom.V3(0, 0, 0), true); !errors.Is(err, ErrDegenerateGeometry) {
		t.Errorf("double-unknown err = %v", err)
	}
}

func TestLocate2DLineWorldFrame(t *testing.T) {
	// An oblique line (not axis aligned) in the z = 0.4 plane. The frame
	// transform must bring the estimate back to world coordinates.
	dir := geom.V2(1, 0.5).Unit()
	from := geom.V2(-0.4, -0.2)
	var positions []geom.Vec3
	for i := 0; i < 120; i++ {
		p := from.Add(dir.Scale(0.8 * float64(i) / 119))
		positions = append(positions, p.XYZ(0.4))
	}
	// Target on the +perp side of the line direction.
	mid := positions[len(positions)/2].XY()
	ant := mid.Add(dir.Perp().Scale(0.9)).XYZ(0.4)
	obs := genObs(ant, positions, 0, 0, nil)
	sol, err := Locate2DLine(obs, testLambda, 0.2, true, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Position.Dist(ant); got > 1e-6 {
		t.Errorf("error %v m (got %v, want %v)", got, sol.Position, ant)
	}
	// The diagnostics added with the observability layer are populated even
	// without a tracer attached. This solve is unweighted, so Iterations
	// stays 0; the residual and condition fields must still be filled in.
	if sol.FinalResidual < 0 || math.IsNaN(sol.FinalResidual) {
		t.Errorf("FinalResidual = %v, want finite >= 0", sol.FinalResidual)
	}
	if sol.ConditionEstimate < 1 || math.IsNaN(sol.ConditionEstimate) {
		t.Errorf("ConditionEstimate = %v, want >= 1", sol.ConditionEstimate)
	}
	// Wrong side lands on the mirror image.
	sol2, err := Locate2DLine(obs, testLambda, 0.2, false, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mirror := mid.Add(dir.Perp().Scale(-0.9)).XYZ(0.4)
	if got := sol2.Position.Dist(mirror); got > 1e-6 {
		t.Errorf("mirror error %v m", got)
	}
}

func TestLocate2DLineValidation(t *testing.T) {
	positions := linePositions(geom.V3(0, 0, 0), geom.V3(1, 0, 0), 10)
	obs := genObs(geom.V3(0, 1, 0), positions, 0, 0, nil)
	if _, err := Locate2DLine(obs[:3], testLambda, 0.2, true, SolveOptions{}); !errors.Is(err, ErrTooFewObservations) {
		t.Errorf("too-few err = %v", err)
	}
	if _, err := Locate2DLine(obs, testLambda, 0, true, SolveOptions{}); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := Locate2DLine(obs, testLambda, 5, true, SolveOptions{}); !errors.Is(err, ErrTooFewObservations) {
		t.Errorf("oversized interval err = %v", err)
	}
	same := genObs(geom.V3(0, 1, 0), []geom.Vec3{{}, {}, {}, {}}, 0, 0, nil)
	if _, err := Locate2DLine(same, testLambda, 0.2, true, SolveOptions{}); !errors.Is(err, ErrDegenerateGeometry) {
		t.Errorf("degenerate err = %v", err)
	}
}

func TestLocate3DPlanarCircle(t *testing.T) {
	// Circle in the z = 0 plane, antenna above and off-axis: the planar
	// lower-dimension 3-D case (Sec. III-C-2).
	ant := geom.V3(0.3, 0.8, 0.5)
	positions := circlePositions(geom.V3(0, 0, 0), 0.4, 120)
	obs := genObs(ant, positions, 0, 0, nil)
	pairs := StridePairs(len(obs), 30)
	sol, err := Locate3DPlanar(obs, testLambda, pairs, planarSideFor(ant, positions), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Position.Dist(ant); got > 1e-6 {
		t.Errorf("error %v m (got %v)", got, sol.Position)
	}
}

// planarSideFor determines which branch of the planar recovery corresponds
// to the true target, by reconstructing the frame the same way
// Locate3DPlanar does.
func planarSideFor(ant geom.Vec3, positions []geom.Vec3) bool {
	obs := make([]PosPhase, len(positions))
	for i, p := range positions {
		obs[i] = PosPhase{Pos: p}
	}
	origin := positions[len(positions)/2]
	u, v, w, err := planeFrame(obs, origin)
	_ = u
	_ = v
	if err != nil {
		return true
	}
	return ant.Sub(origin).Dot(w) >= 0
}

func TestLocate3DPlanarRejectsLine(t *testing.T) {
	// A single straight line cannot fix a 3-D position (Sec. III-C-2).
	positions := linePositions(geom.V3(-0.5, 0, 0), geom.V3(0.5, 0, 0), 50)
	obs := genObs(geom.V3(0, 1, 0.3), positions, 0, 0, nil)
	pairs := StridePairs(len(obs), 10)
	if _, err := Locate3DPlanar(obs, testLambda, pairs, true, SolveOptions{}); !errors.Is(err, ErrDegenerateGeometry) {
		t.Errorf("collinear err = %v", err)
	}
}

func TestWLSBeatsLSUnderOutliers(t *testing.T) {
	// Corrupt a contiguous chunk of phases (multipath burst); weighted
	// least squares should localise markedly better than plain LS.
	rng := stats.NewRNG(7)
	ant := geom.V3(1, 0, 0)
	var lsErr, wlsErr float64
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		positions := circlePositions(geom.V3(0, 0, 0), 0.3, 120)
		obs := genObs(ant, positions, 0.05, 0, rng)
		// Corrupt ~10% of samples with a strong multipath-like bias,
		// keeping the reference sample (index 60) clean: a corrupted
		// reference biases every equation identically, which no weighting
		// can undo.
		start := 5 + rng.Intn(10)
		for i := start; i < start+12; i++ {
			obs[i].Theta += 2.0
		}
		pairs := StridePairs(len(obs), 30)
		ls, err := Locate2D(obs, testLambda, pairs, SolveOptions{Weighted: false})
		if err != nil {
			t.Fatal(err)
		}
		wls, err := Locate2D(obs, testLambda, pairs, DefaultSolveOptions())
		if err != nil {
			t.Fatal(err)
		}
		lsErr += ls.Position.Dist(ant)
		wlsErr += wls.Position.Dist(ant)
	}
	if wlsErr >= lsErr {
		t.Errorf("WLS (%v) did not beat LS (%v)", wlsErr/trials, lsErr/trials)
	}
}

func TestSolveSystemReportsResidualDiagnostics(t *testing.T) {
	rng := stats.NewRNG(3)
	ant := geom.V3(1, 0, 0)
	positions := circlePositions(geom.V3(0, 0, 0), 0.3, 60)
	obs := genObs(ant, positions, 0.1, 0, rng)
	p, err := NewProfile(obs, testLambda)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := BuildSystem(p, StridePairs(len(obs), 15), 2)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveSystem(sys, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Residuals) != sys.A.Rows() || len(sol.Weights) != sys.A.Rows() {
		t.Fatal("diagnostics missing")
	}
	if sol.RMSResidual <= 0 || sol.MeanAbsResidual <= 0 {
		t.Error("residual magnitudes not positive under noise")
	}
	if sol.Iterations == 0 {
		t.Error("IRWLS did not iterate")
	}
	if sol.FinalResidual <= 0 || math.IsInf(sol.FinalResidual, 0) || math.IsNaN(sol.FinalResidual) {
		t.Errorf("FinalResidual = %v, want finite positive under noise", sol.FinalResidual)
	}
	if sol.ConditionEstimate < 1 || math.IsNaN(sol.ConditionEstimate) {
		t.Errorf("ConditionEstimate = %v, want >= 1", sol.ConditionEstimate)
	}
	for _, w := range sol.Weights {
		if w < 0 || w > 1 {
			t.Fatalf("weight %v outside [0,1]", w)
		}
	}
}

func TestStridePairs(t *testing.T) {
	if got := StridePairs(5, 2); len(got) != 3 || got[0] != (Pair{0, 2}) {
		t.Errorf("StridePairs = %v", got)
	}
	if got := StridePairs(3, 0); got != nil {
		t.Errorf("zero stride = %v", got)
	}
	if got := StridePairs(3, 3); got != nil {
		t.Errorf("oversized stride = %v", got)
	}
}

func TestSeparationPairs(t *testing.T) {
	positions := linePositions(geom.V3(0, 0, 0), geom.V3(1, 0, 0), 11) // 0.1 spacing
	pairs := SeparationPairs(positions, 0.25)
	if len(pairs) == 0 {
		t.Fatal("no pairs")
	}
	for _, pr := range pairs {
		if d := positions[pr.I].Dist(positions[pr.J]); d < 0.25-1e-9 {
			t.Errorf("pair %v separation %v < 0.25", pr, d)
		}
	}
	if got := SeparationPairs(positions, 0); got != nil {
		t.Errorf("zero separation = %v", got)
	}
	if got := SeparationPairs(positions, 10); len(got) != 0 {
		t.Errorf("unreachable separation = %v", got)
	}
}

func TestSubsampledAllPairs(t *testing.T) {
	all := SubsampledAllPairs(5, 100)
	if len(all) != 10 {
		t.Errorf("full set = %d pairs, want 10", len(all))
	}
	capped := SubsampledAllPairs(20, 30)
	if len(capped) > 30 || len(capped) < 25 {
		t.Errorf("capped = %d pairs", len(capped))
	}
	seen := map[Pair]bool{}
	for _, p := range capped {
		if p.I >= p.J {
			t.Fatalf("unordered pair %v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
	if got := SubsampledAllPairs(1, 10); got != nil {
		t.Errorf("n=1 pairs = %v", got)
	}
}
