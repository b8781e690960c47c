package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/rfid-lion/lion/internal/geom"
)

// The solve boundary must reject malformed input with typed errors instead of
// letting NaN/Inf propagate silently through the WLS normal equations. One
// test per rejection path.

func finitePositions(n int) []geom.Vec3 {
	out := make([]geom.Vec3, n)
	for i := range out {
		out[i] = geom.V3(float64(i)*0.01, 0, 0)
	}
	return out
}

func TestPreprocessRejectsNaNPosition(t *testing.T) {
	pos := finitePositions(8)
	pos[3] = geom.V3(math.NaN(), 0, 0)
	_, err := Preprocess(pos, make([]float64, 8), 0)
	if !errors.Is(err, ErrNonFiniteInput) {
		t.Errorf("err = %v, want ErrNonFiniteInput", err)
	}
}

func TestPreprocessRejectsInfPosition(t *testing.T) {
	pos := finitePositions(8)
	pos[7] = geom.V3(0, math.Inf(-1), 0)
	_, err := Preprocess(pos, make([]float64, 8), 0)
	if !errors.Is(err, ErrNonFiniteInput) {
		t.Errorf("err = %v, want ErrNonFiniteInput", err)
	}
}

func TestPreprocessRejectsNaNPhase(t *testing.T) {
	phases := make([]float64, 8)
	phases[0] = math.NaN()
	_, err := Preprocess(finitePositions(8), phases, 0)
	if !errors.Is(err, ErrNonFiniteInput) {
		t.Errorf("err = %v, want ErrNonFiniteInput", err)
	}
}

func TestPreprocessRejectsInfPhase(t *testing.T) {
	phases := make([]float64, 8)
	phases[5] = math.Inf(1)
	_, err := Preprocess(finitePositions(8), phases, 0)
	if !errors.Is(err, ErrNonFiniteInput) {
		t.Errorf("err = %v, want ErrNonFiniteInput", err)
	}
}

// TestPreprocessReportsFirstBadInput pins the error Preprocess returns when
// several inputs are non-finite: a bad position anywhere before a bad
// phase, and each at its first index.
func TestPreprocessReportsFirstBadInput(t *testing.T) {
	pos := finitePositions(8)
	phases := make([]float64, 8)
	phases[1], phases[6] = math.NaN(), math.Inf(1)
	pos[5], pos[7] = geom.V3(0, 0, math.Inf(1)), geom.V3(math.NaN(), 0, 0)
	if _, err := Preprocess(pos, phases, 0); err == nil || !strings.Contains(err.Error(), "position 5 ") {
		t.Errorf("bad positions and phases: err = %v, want position 5", err)
	}
	if _, err := Preprocess(finitePositions(8), phases, 0); err == nil || !strings.Contains(err.Error(), "phase 1 ") {
		t.Errorf("bad phases: err = %v, want phase 1", err)
	}
}

func TestPreprocessRejectsMismatchedLengths(t *testing.T) {
	_, err := Preprocess(finitePositions(8), make([]float64, 7), 0)
	if !errors.Is(err, ErrTooFewObservations) {
		t.Errorf("err = %v, want ErrTooFewObservations", err)
	}
}

func TestNewProfileRejectsNonFiniteLambda(t *testing.T) {
	obs := []PosPhase{
		{Pos: geom.V3(0, 0, 0), Theta: 0},
		{Pos: geom.V3(0.1, 0, 0), Theta: 1},
	}
	for _, lambda := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.3} {
		if _, err := NewProfile(obs, lambda); !errors.Is(err, ErrBadLambda) {
			t.Errorf("lambda %v: err = %v, want ErrBadLambda", lambda, err)
		}
	}
}

func TestNewProfileRejectsNonFiniteObservation(t *testing.T) {
	cases := map[string][]PosPhase{
		"NaN theta": {
			{Pos: geom.V3(0, 0, 0), Theta: 0},
			{Pos: geom.V3(0.1, 0, 0), Theta: math.NaN()},
		},
		"Inf position": {
			{Pos: geom.V3(math.Inf(1), 0, 0), Theta: 0},
			{Pos: geom.V3(0.1, 0, 0), Theta: 1},
		},
	}
	for name, obs := range cases {
		if _, err := NewProfile(obs, 0.3257); !errors.Is(err, ErrNonFiniteInput) {
			t.Errorf("%s: err = %v, want ErrNonFiniteInput", name, err)
		}
	}
}

// TestLocatorsRejectNonFiniteObservations checks that the public locators
// refuse poisoned observation sets at the boundary rather than returning a
// NaN estimate.
func TestLocatorsRejectNonFiniteObservations(t *testing.T) {
	obs := make([]PosPhase, 16)
	for i := range obs {
		obs[i] = PosPhase{Pos: geom.V3(float64(i)*0.02, 0, 0), Theta: float64(i) * 0.1}
	}
	obs[9].Theta = math.NaN()
	lambda := 0.3257
	if _, err := Locate2D(obs, lambda, StridePairs(len(obs), 4), DefaultSolveOptions()); !errors.Is(err, ErrNonFiniteInput) {
		t.Errorf("Locate2D: err = %v, want ErrNonFiniteInput", err)
	}
	if _, err := Locate2DLineIntervals(obs, lambda, []float64{0.1}, true, DefaultSolveOptions()); !errors.Is(err, ErrNonFiniteInput) {
		t.Errorf("Locate2DLineIntervals: err = %v, want ErrNonFiniteInput", err)
	}
	if _, err := Locate3D(obs, lambda, StridePairs(len(obs), 4), DefaultSolveOptions()); !errors.Is(err, ErrNonFiniteInput) {
		t.Errorf("Locate3D: err = %v, want ErrNonFiniteInput", err)
	}
}
