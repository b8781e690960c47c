package health

import (
	"math"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
)

// TestDriftSumsExactAfterLongRun regresses the unbounded floating-point
// error of the running circular-mean sums: each window slide used to leak
// one rounding error into sumSin/sumCos forever, a random walk that over
// ≥10⁷ adds drifts the stored sums away from the true window sums. The fix
// resummates exactly from the ring once per full rotation, so after any
// multiple of the window size the stored sums must be bit-identical to a
// fresh summation of the ring contents.
func TestDriftSumsExactAfterLongRun(t *testing.T) {
	cal := testCalibration()
	cal.Window = 256
	d := newDriftEstimator(cal)

	// A deterministic phase sequence with enough variation that the
	// running add/subtract rounding errors cannot cancel by accident.
	const rounds = 39063 // 39063 * 256 = 10,000,128 adds ≥ 1e7
	x := 0.37
	for i := 0; i < rounds*cal.Window; i++ {
		x = math.Mod(x*1.6180339887498949+0.1234567, 2*math.Pi)
		pos := geom.V3(0.5+0.001*float64(i%977), 0.1, 0)
		d.add(pos, x)
	}
	if d.next != 0 || d.n != cal.Window {
		t.Fatalf("ring position after run: next=%d n=%d, want a full rotation boundary", d.next, d.n)
	}

	var wantSin, wantCos float64
	for i := 0; i < d.n; i++ {
		wantSin += d.sin[i]
		wantCos += d.cos[i]
	}
	if math.Float64bits(d.sumSin) != math.Float64bits(wantSin) ||
		math.Float64bits(d.sumCos) != math.Float64bits(wantCos) {
		t.Errorf("running sums drifted after %d adds: sumSin=%v want %v (Δ=%g), sumCos=%v want %v (Δ=%g)",
			rounds*cal.Window, d.sumSin, wantSin, d.sumSin-wantSin,
			d.sumCos, wantCos, d.sumCos-wantCos)
	}

	// The estimate itself must still be a sane circular mean.
	if st := d.status(); !st.Valid {
		t.Error("long-run estimator reports invalid status")
	}
}

// TestDriftValidityGuardAntipodal regresses the brittle exact-equality
// validity guard: a window of antipodal offset measurements cancels to a
// resultant of ~1e-16 — not exactly zero — and the old `== 0` check let
// atan2 turn that remainder into a confident garbage estimate. The guard
// must treat any resultant below the magnitude floor as invalid.
func TestDriftValidityGuardAntipodal(t *testing.T) {
	cal := testCalibration()
	cal.Window = 32
	cal.MinSamples = 32
	d := newDriftEstimator(cal)

	// Alternate instantaneous offsets θ and θ+π: unit vectors cancel
	// pairwise up to rounding.
	pos := geom.V3(0.5, 0, 0)
	base := rf.PhaseOfDistance(cal.Center.Dist(pos), cal.Lambda)
	for i := 0; i < cal.Window; i++ {
		theta := 0.7
		if i%2 == 1 {
			theta += math.Pi
		}
		d.add(pos, base+theta)
	}
	if res := math.Hypot(d.sumSin, d.sumCos); res >= minMeanResultant*float64(d.n) {
		t.Fatalf("antipodal window resultant %g not below guard %g — test setup broken",
			res, minMeanResultant*float64(d.n))
	}
	if st := d.status(); st.Valid {
		t.Errorf("antipodal window produced a Valid estimate: %+v", st)
	}

	// A concentrated window must still validate.
	feedDrift(d, cal.Window, 1.3)
	if st := d.status(); !st.Valid {
		t.Errorf("concentrated window invalid: %+v", st)
	}
}

func TestSwapCalibrationResetsEstimator(t *testing.T) {
	cal := testCalibration()
	m, err := New(Config{Calibrations: []Calibration{cal}, FlightDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Drifted stream against the original calibration.
	step := 0.5
	tnow := time.Duration(0)
	for i := 0; i < 64; i++ {
		pos := geom.V3(0.5+0.01*float64(i%100), 0, 0)
		phase := rf.WrapPhase(rf.PhaseOfDistance(cal.Center.Dist(pos), cal.Lambda) + cal.Offset + step)
		m.ObserveSample(cal.Antenna, tnow, pos, phase)
		tnow += 10 * time.Millisecond
	}
	ds := m.Drifts()
	if len(ds) != 1 || !ds[0].Valid || math.Abs(ds[0].DriftRad-step) > 1e-9 {
		t.Fatalf("pre-swap drift = %+v, want DriftRad %v", ds, step)
	}

	// Swap to the corrected offset: window resets, so the estimate is
	// invalid until post-swap samples refill it, then reads zero drift.
	swapped := cal
	swapped.Offset = rf.WrapPhase(cal.Offset + step)
	if err := m.SwapCalibration(swapped); err != nil {
		t.Fatal(err)
	}
	ds = m.Drifts()
	if len(ds) != 1 || ds[0].Valid || ds[0].Samples != 0 {
		t.Fatalf("post-swap drift not reset: %+v", ds)
	}
	if got, ok := m.Calibration(cal.Antenna); !ok || got.Offset != swapped.Offset {
		t.Fatalf("Calibration() = %+v, %v; want swapped offset %v", got, ok, swapped.Offset)
	}
	for i := 0; i < 64; i++ {
		pos := geom.V3(0.5+0.01*float64(i%100), 0, 0)
		phase := rf.WrapPhase(rf.PhaseOfDistance(cal.Center.Dist(pos), cal.Lambda) + cal.Offset + step)
		m.ObserveSample(cal.Antenna, tnow, pos, phase)
		tnow += 10 * time.Millisecond
	}
	ds = m.Drifts()
	if len(ds) != 1 || !ds[0].Valid || math.Abs(ds[0].DriftRad) > 1e-9 {
		t.Fatalf("post-swap drift under corrected profile = %+v, want ~0", ds)
	}

	// Guard rails: unknown antennas, invalid calibrations, nil monitors.
	unknown := cal
	unknown.Antenna = "A9"
	if err := m.SwapCalibration(unknown); err == nil {
		t.Error("swap for unregistered antenna accepted")
	}
	bad := cal
	bad.Lambda = 0
	if err := m.SwapCalibration(bad); err == nil {
		t.Error("invalid calibration accepted")
	}
	var nilMon *Monitor
	if err := nilMon.SwapCalibration(cal); err == nil {
		t.Error("nil monitor swap accepted")
	}
}

func TestOnTransitionHook(t *testing.T) {
	var got []Alert
	m, err := New(Config{
		Rules: []Rule{{
			Name: "residual_static", Signal: SignalResidual, Kind: KindStatic,
			Threshold: 1.0, HoldDown: 2 * time.Second, ResolveAfter: time.Second,
			Severity: SevCritical,
		}},
		FlightDepth: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetOnTransition(func(a Alert) { got = append(got, a) })
	m.ObserveSolve(solveAt(time.Second, 5)) // violating: pending
	m.ObserveSolve(solveAt(4*time.Second, 5))
	m.ObserveSolve(solveAt(5*time.Second, 0.1))
	m.ObserveSolve(solveAt(7*time.Second, 0.1)) // healthy past hysteresis: resolved

	want := []State{StatePending, StateFiring, StateResolved}
	if len(got) != len(want) {
		t.Fatalf("hook saw %d transitions (%+v), want %d", len(got), got, len(want))
	}
	for i, st := range want {
		if got[i].State != st || got[i].Rule != "residual_static" {
			t.Errorf("transition %d = %v/%s, want %v", i, got[i].Rule, got[i].State, st)
		}
	}
	// The firing copy must carry the evaluated value.
	if got[1].Value != 5 {
		t.Errorf("firing hook Value = %v, want 5", got[1].Value)
	}
}
