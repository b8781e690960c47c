package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/rfid-lion/lion/internal/dsp"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
)

// Errors returned by the localization pipeline.
var (
	// ErrTooFewObservations is returned when the input cannot produce
	// enough independent equations.
	ErrTooFewObservations = errors.New("core: too few observations")
	// ErrBadLambda is returned for non-positive wavelengths.
	ErrBadLambda = errors.New("core: wavelength must be positive")
	// ErrDegenerateGeometry is returned when the trajectory geometry cannot
	// determine the requested coordinates (e.g. a single straight line for
	// full 3-D localization, Sec. III-C).
	ErrDegenerateGeometry = errors.New("core: trajectory geometry is degenerate for the requested dimension")
	// ErrNoSolution is returned when the lower-dimension recovery has no
	// real solution (d_r smaller than the in-plane displacement).
	ErrNoSolution = errors.New("core: no real solution for the recovered coordinate")
	// ErrNonFiniteInput is returned when an observation carries a NaN or
	// infinite position or phase. Rejecting these at the solve boundary keeps
	// malformed network input (the liond ingest path) from poisoning a WLS
	// solve: one NaN anywhere in the system silently NaNs the whole estimate.
	ErrNonFiniteInput = errors.New("core: non-finite observation input")
)

// PosPhase is one calibrated measurement: the known tag position and the
// unwrapped phase observed there. All phases in one localization run must
// belong to a single continuous unwrapped profile so that phase differences
// translate to distance differences (Eq. 6).
type PosPhase struct {
	Pos   geom.Vec3
	Theta float64
}

// Preprocess converts raw wrapped phases into a continuous profile: it
// unwraps the modulo-2π jumps and optionally smooths with a centred
// moving-average window (Sec. IV-A). A window of zero or one disables
// smoothing; the window must be odd otherwise. Positions and phases must
// have equal length. The returned profile is freshly allocated.
func Preprocess(positions []geom.Vec3, wrapped []float64, smoothWindow int) ([]PosPhase, error) {
	var p Preprocessor
	return p.Preprocess(positions, wrapped, smoothWindow)
}

// Preprocessor is the reusable-storage form of Preprocess, for callers that
// preprocess window after window: once its buffers have grown to the window
// size it preprocesses without heap allocations. The zero value is ready to
// use; a Preprocessor must not be shared between goroutines.
type Preprocessor struct {
	theta, smoothed []float64
	out             []PosPhase
}

// Preprocess is the package-level Preprocess — the same validation, the
// same unwrap and smoothing arithmetic — writing into p's buffers. The
// returned profile aliases p's storage and is valid until the next call.
func (p *Preprocessor) Preprocess(positions []geom.Vec3, wrapped []float64, smoothWindow int) ([]PosPhase, error) {
	if len(positions) != len(wrapped) {
		return nil, fmt.Errorf("core: %d positions vs %d phases: %w",
			len(positions), len(wrapped), ErrTooFewObservations)
	}
	for i, pos := range positions {
		if !pos.IsFinite() {
			return nil, fmt.Errorf("core: position %d is %v: %w", i, pos, ErrNonFiniteInput)
		}
	}
	for i, th := range wrapped {
		if math.IsNaN(th) || math.IsInf(th, 0) {
			return nil, fmt.Errorf("core: phase %d is %v: %w", i, th, ErrNonFiniteInput)
		}
	}
	p.theta = dsp.UnwrapInto(p.theta, wrapped)
	theta := p.theta
	if smoothWindow > 1 {
		sm, err := dsp.MovingAverageInto(p.smoothed, theta, smoothWindow)
		if err != nil {
			return nil, fmt.Errorf("smooth: %w", err)
		}
		p.smoothed = sm
		theta = sm
	}
	if cap(p.out) < len(positions) {
		p.out = make([]PosPhase, len(positions))
	}
	p.out = p.out[:len(positions)]
	for i, pos := range positions {
		p.out[i] = PosPhase{Pos: pos, Theta: theta[i]}
	}
	return p.out, nil
}

// Profile is a preprocessed measurement set ready for equation generation.
// Distance differences are taken relative to the sample at RefIndex
// (Eq. 6): Δd_t = λ/4π · (θ_t − θ_ref).
type Profile struct {
	Obs      []PosPhase
	Lambda   float64
	RefIndex int

	deltaD []float64 // cached Δd per observation
}

// NewProfile builds a profile over the observations with the middle sample
// as the reference position. At least two observations are required.
func NewProfile(obs []PosPhase, lambda float64) (*Profile, error) {
	return NewProfileRef(obs, lambda, len(obs)/2)
}

// NewProfileRef builds a profile with an explicit reference index.
func NewProfileRef(obs []PosPhase, lambda float64, refIndex int) (*Profile, error) {
	if lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return nil, ErrBadLambda
	}
	if len(obs) < 2 {
		return nil, ErrTooFewObservations
	}
	if refIndex < 0 || refIndex >= len(obs) {
		return nil, fmt.Errorf("core: reference index %d out of range [0,%d)",
			refIndex, len(obs))
	}
	for i, o := range obs {
		if !o.Pos.IsFinite() || math.IsNaN(o.Theta) || math.IsInf(o.Theta, 0) {
			return nil, fmt.Errorf("core: observation %d is %v: %w", i, o, ErrNonFiniteInput)
		}
	}
	cp := make([]PosPhase, len(obs))
	copy(cp, obs)
	p := &Profile{Obs: cp, Lambda: lambda, RefIndex: refIndex}
	p.deltaD = make([]float64, len(cp))
	ref := cp[refIndex].Theta
	for i, o := range cp {
		p.deltaD[i] = rf.DistanceOfPhaseDelta(o.Theta-ref, lambda)
	}
	return p, nil
}

// Len returns the number of observations.
func (p *Profile) Len() int { return len(p.Obs) }

// RefPos returns the reference tag position used for Δd.
func (p *Profile) RefPos() geom.Vec3 { return p.Obs[p.RefIndex].Pos }

// DeltaDist returns Δd_i, the distance difference of observation i relative
// to the reference observation.
func (p *Profile) DeltaDist(i int) float64 { return p.deltaD[i] }
