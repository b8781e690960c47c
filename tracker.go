package lion

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
)

// The streaming tracker turns LION into an estimator for the paper's
// motivating IIoT application: items riding a conveyor past a calibrated
// antenna. It consumes the reader's phase stream one read at a time and
// re-solves the linear model over a sliding window every few reads, running
// the offline pipeline — Preprocess (unwrap and smoothing, Sec. IV-A), then
// Locate2DLineIntervals — light-weight enough for an edge node.

// ErrTrackerNotReady is returned by Tracker.Push until the sliding window
// holds enough reads.
var ErrTrackerNotReady = errors.New("tracker: not enough samples in the window yet")

var errTrackerConfig = errors.New("tracker: invalid configuration")

// TrackerConfig describes the deployment the tracker runs in.
type TrackerConfig struct {
	// Lambda is the carrier wavelength in metres.
	Lambda float64
	// AntennaPos is the calibrated phase center of the antenna in world
	// coordinates.
	AntennaPos Vec3
	// TrackDir is the direction of belt travel (normalised internally).
	// The track is assumed straight and in a z = const plane.
	TrackDir Vec3
	// Speed is the belt speed in m/s (from the conveyor encoder).
	Speed float64
	// WindowSize is the number of reads the sliding window holds; zero
	// defaults to 400 (≈4 s at 100 Hz).
	WindowSize int
	// MinWindow is the number of reads required before the first estimate;
	// zero defaults to WindowSize/2.
	MinWindow int
	// Every controls how often estimates are produced: one per Every
	// pushes. Zero defaults to 10.
	Every int
	// Intervals are the pairing separations; empty defaults to
	// {0.2, 0.4} metres.
	Intervals []float64
	// PositiveSide places the antenna on the +90°-rotated side of
	// TrackDir (see Locate2DLine).
	PositiveSide bool
	// SmoothWindow is the moving-average window; zero defaults to 9.
	SmoothWindow int
	// Solve configures the least-squares estimation; the zero value means
	// weighted least squares.
	Solve SolveOptions
}

func (c TrackerConfig) withDefaults() (TrackerConfig, error) {
	if c.Lambda <= 0 {
		return c, fmt.Errorf("%w: wavelength %v", errTrackerConfig, c.Lambda)
	}
	if c.Speed <= 0 {
		return c, fmt.Errorf("%w: speed %v", errTrackerConfig, c.Speed)
	}
	if c.TrackDir.Norm() == 0 {
		return c, fmt.Errorf("%w: zero track direction", errTrackerConfig)
	}
	if c.WindowSize == 0 {
		c.WindowSize = 400
	}
	if c.WindowSize < 8 {
		return c, fmt.Errorf("%w: window size %d", errTrackerConfig, c.WindowSize)
	}
	if c.MinWindow == 0 {
		c.MinWindow = c.WindowSize / 2
	}
	if c.MinWindow > c.WindowSize {
		return c, fmt.Errorf("%w: min window exceeds window", errTrackerConfig)
	}
	if c.Every == 0 {
		c.Every = 10
	}
	if len(c.Intervals) == 0 {
		c.Intervals = []float64{0.2, 0.4}
	}
	if c.SmoothWindow == 0 {
		c.SmoothWindow = 9
	}
	if c.SmoothWindow%2 == 0 {
		return c, fmt.Errorf("%w: smoothing window %d must be odd", errTrackerConfig, c.SmoothWindow)
	}
	if (c.Solve == SolveOptions{}) {
		c.Solve = core.DefaultSolveOptions()
	}
	return c, nil
}

// TrackEstimate is one tracker output.
type TrackEstimate struct {
	// Time is the read time of the sample that triggered the estimate.
	Time time.Duration
	// Position is the estimated tag position in world coordinates at Time.
	Position Vec3
	// MeanAbsResidual carries the solve's residual magnitude — a live data
	// quality indicator.
	MeanAbsResidual float64
	// WindowReads is the number of reads the estimate used.
	WindowReads int
}

// Tracker is the streaming estimator. It is not safe for concurrent use.
type Tracker struct {
	cfg TrackerConfig
	dir geom.Vec3

	times  []time.Duration
	phases []float64 // wrapped, as read
	count  int       // pushes since last estimate
}

// NewTracker builds a tracker for the deployment.
func NewTracker(cfg TrackerConfig) (*Tracker, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Tracker{cfg: c, dir: c.TrackDir.Unit()}, nil
}

// Push ingests one read (wrapped phase in [0, 2π)). It returns an estimate
// every cfg.Every pushes once the window is primed, and ErrTrackerNotReady
// otherwise. A non-finite phase is refused with ErrNonFiniteInput and leaves
// the window untouched.
func (t *Tracker) Push(at time.Duration, wrappedPhase float64) (*TrackEstimate, error) {
	if math.IsNaN(wrappedPhase) || math.IsInf(wrappedPhase, 0) {
		return nil, fmt.Errorf("tracker: phase %v at %v: %w", wrappedPhase, at, ErrNonFiniteInput)
	}
	t.times = append(t.times, at)
	t.phases = append(t.phases, wrappedPhase)
	if drop := len(t.times) - t.cfg.WindowSize; drop > 0 {
		t.times = t.times[drop:]
		t.phases = t.phases[drop:]
	}
	t.count++
	if len(t.times) < t.cfg.MinWindow || t.count < t.cfg.Every {
		return nil, ErrTrackerNotReady
	}
	t.count = 0
	return t.estimate()
}

// estimate solves the window. Positions are relative to the window's first
// read: o_i = speed·(t_i − t_0)·dir.
func (t *Tracker) estimate() (*TrackEstimate, error) {
	n := len(t.times)
	t0 := t.times[0]
	positions := make([]geom.Vec3, n)
	for i, at := range t.times {
		positions[i] = t.dir.Scale(t.cfg.Speed * (at - t0).Seconds())
	}
	obs, err := core.Preprocess(positions, t.phases, t.cfg.SmoothWindow)
	if err != nil {
		return nil, fmt.Errorf("tracker preprocess: %w", err)
	}
	sol, err := core.Locate2DLineIntervals(obs, t.cfg.Lambda,
		t.usableIntervals(positions[n-1].Dist(positions[0])), t.cfg.PositiveSide, t.cfg.Solve)
	if err != nil {
		return nil, fmt.Errorf("tracker solve: %w", err)
	}
	// sol.Position is the antenna in the window-start frame; invert to get
	// the tag's window-start world position, then advance to "now".
	windowStart := t.cfg.AntennaPos.Sub(sol.Position)
	return &TrackEstimate{
		Time:            t.times[n-1],
		Position:        windowStart.Add(positions[n-1]),
		MeanAbsResidual: sol.MeanAbsResidual,
		WindowReads:     n,
	}, nil
}

// usableIntervals keeps the configured pairing separations that fit inside
// the window's spatial span, falling back to span-relative separations when
// the window is still short — right after priming, the tag has not travelled
// far enough for the configured intervals to pair.
func (t *Tracker) usableIntervals(span float64) []float64 {
	// Span-relative separations are always included: they guarantee a
	// well-conditioned mix of pair geometries at every window size. A
	// configured interval equal to the span would pair only a handful of
	// nearly identical rows and leave the normal equations near-singular.
	out := []float64{span / 4, span / 2}
	for _, iv := range t.cfg.Intervals {
		if iv < span*0.7 {
			out = append(out, iv)
		}
	}
	return out
}

// Reset clears the window, e.g. when a new item enters the read zone.
func (t *Tracker) Reset() {
	t.times = t.times[:0]
	t.phases = t.phases[:0]
	t.count = 0
}

// Len returns the current window occupancy.
func (t *Tracker) Len() int { return len(t.times) }

// UnwrapSafe reports whether a belt speed and read rate keep consecutive
// reads within the phase-unwrapping limit (tag displacement well under a
// quarter wavelength per read, Sec. IV-A-1); use it to validate a deployment.
func UnwrapSafe(lambda, speed, rateHz float64) bool {
	if rateHz <= 0 {
		return false
	}
	return rf.PhaseOfDistance(speed/rateHz, lambda) < math.Pi/2
}
