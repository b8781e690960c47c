package lion

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/traject"
)

func baseConfig(lambda float64) TrackerConfig {
	return TrackerConfig{
		Lambda:       lambda,
		AntennaPos:   geom.V3(0, 0.8, 0),
		TrackDir:     geom.V3(1, 0, 0),
		Speed:        0.1,
		WindowSize:   500,
		MinWindow:    200,
		Every:        25,
		PositiveSide: true,
	}
}

func TestTrackerConfigValidation(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	good := baseConfig(lambda)
	if _, err := NewTracker(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*TrackerConfig){
		func(c *TrackerConfig) { c.Lambda = 0 },
		func(c *TrackerConfig) { c.Speed = 0 },
		func(c *TrackerConfig) { c.TrackDir = geom.Vec3{} },
		func(c *TrackerConfig) { c.WindowSize = 4 },
		func(c *TrackerConfig) { c.MinWindow = 1000 },
		func(c *TrackerConfig) { c.SmoothWindow = 8 },
	}
	for i, mutate := range cases {
		c := good
		mutate(&c)
		if _, err := NewTracker(c); !errors.Is(err, errTrackerConfig) {
			t.Errorf("case %d: err = %v, want errTrackerConfig", i, err)
		}
	}
}

func TestTrackerFollowsMovingTag(t *testing.T) {
	env, err := sim.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	reader, err := sim.NewReader(env, sim.ReaderConfig{RateHz: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ant := &sim.Antenna{ID: "A", PhysicalCenter: geom.V3(0, 0.8, 0)}
	tag := &sim.Tag{ID: "T", PhaseOffset: 0.7}
	start := geom.V3(-0.6, 0, 0)
	trj, err := traject.NewLinear(start, geom.V3(0.8, 0, 0), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := reader.Scan(ant, tag, trj)
	if err != nil {
		t.Fatal(err)
	}

	trk, err := NewTracker(baseConfig(env.Wavelength()))
	if err != nil {
		t.Fatal(err)
	}
	var estimates []*TrackEstimate
	truthAt := map[time.Duration]geom.Vec3{}
	for _, s := range samples {
		est, err := trk.Push(s.Time, s.Phase)
		if errors.Is(err, ErrTrackerNotReady) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		estimates = append(estimates, est)
		truthAt[est.Time] = s.TagPos
	}
	if len(estimates) < 20 {
		t.Fatalf("only %d estimates", len(estimates))
	}
	// Skip the earliest estimates (short windows); the steady-state ones
	// must track within a few centimetres on average.
	var sum, worst float64
	rest := estimates[5:]
	for _, est := range rest {
		e := est.Position.Dist(truthAt[est.Time])
		sum += e
		if e > worst {
			worst = e
		}
	}
	if mean := sum / float64(len(rest)); mean > 0.025 {
		t.Errorf("mean steady-state tracking error %v m", mean)
	}
	if worst > 0.10 {
		t.Errorf("worst steady-state tracking error %v m", worst)
	}
}

func TestTrackerSurvivesWrapBoundaries(t *testing.T) {
	// The raw phases wrap dozens of times over a 1.4 m pass; unwrapping
	// each sliding window must keep it consistent throughout.
	env, err := sim.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	env.PhaseNoiseStd = 0
	reader, err := sim.NewReader(env, sim.ReaderConfig{RateHz: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ant := &sim.Antenna{PhysicalCenter: geom.V3(0, 0.8, 0)}
	trj, err := traject.NewLinear(geom.V3(-0.7, 0, 0), geom.V3(0.7, 0, 0), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := reader.Scan(ant, &sim.Tag{}, trj)
	if err != nil {
		t.Fatal(err)
	}
	trk, err := NewTracker(baseConfig(env.Wavelength()))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		est, err := trk.Push(s.Time, s.Phase)
		if errors.Is(err, ErrTrackerNotReady) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if d := est.Position.Dist(s.TagPos); d > 0.01 {
			t.Fatalf("noiseless tracking error %v m at %v", d, s.Time)
		}
	}
}

func TestTrackerReset(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	trk, err := NewTracker(baseConfig(lambda))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		_, _ = trk.Push(time.Duration(i)*10*time.Millisecond, rf.WrapPhase(float64(i)*0.05))
	}
	if trk.Len() == 0 {
		t.Fatal("window empty before reset")
	}
	trk.Reset()
	if trk.Len() != 0 {
		t.Errorf("window not cleared: %d", trk.Len())
	}
	if _, err := trk.Push(0, 1); !errors.Is(err, ErrTrackerNotReady) {
		t.Errorf("post-reset push err = %v", err)
	}
}

func TestTrackerWindowBound(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	cfg := baseConfig(lambda)
	cfg.WindowSize = 60
	cfg.MinWindow = 30
	cfg.Every = 1000000 // never estimate; we only check the buffer bound
	trk, err := NewTracker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		_, _ = trk.Push(time.Duration(i)*10*time.Millisecond, 0.1)
	}
	if trk.Len() != 60 {
		t.Errorf("window length = %d, want 60", trk.Len())
	}
}

func TestUnwrapSafe(t *testing.T) {
	lambda := rf.DefaultBand().Wavelength()
	if !UnwrapSafe(lambda, 0.1, 100) {
		t.Error("paper conditions (10 cm/s at 100 Hz) reported unsafe")
	}
	if UnwrapSafe(lambda, 10, 100) {
		t.Error("10 m/s at 100 Hz reported safe")
	}
	if UnwrapSafe(lambda, 0.1, 0) {
		t.Error("zero read rate reported safe")
	}
	// The safety boundary is a quarter-wavelength displacement per read...
	// with margin: π/2 of round-trip phase is λ/8 of motion.
	limit := lambda / 8
	if !UnwrapSafe(lambda, limit*0.9*100, 100) {
		t.Error("just-below-limit speed reported unsafe")
	}
	if UnwrapSafe(lambda, limit*1.1*100, 100) {
		t.Error("just-above-limit speed reported safe")
	}
}

func TestTrackerEstimateResidualSignal(t *testing.T) {
	// Corrupted reads inside the window should surface as a larger
	// residual in the estimates — the live data-quality signal.
	env, err := sim.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	env.PhaseNoiseStd = 0.05
	reader, err := sim.NewReader(env, sim.ReaderConfig{RateHz: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ant := &sim.Antenna{PhysicalCenter: geom.V3(0, 0.8, 0)}
	trj, err := traject.NewLinear(geom.V3(-0.7, 0, 0), geom.V3(0.7, 0, 0), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := reader.Scan(ant, &sim.Tag{}, trj)
	if err != nil {
		t.Fatal(err)
	}
	run := func(corrupt bool) float64 {
		trk, err := NewTracker(baseConfig(env.Wavelength()))
		if err != nil {
			t.Fatal(err)
		}
		var maxRes float64
		for i, s := range samples {
			phase := s.Phase
			if corrupt && i > 600 && i < 700 {
				phase = rf.WrapPhase(phase + 0.8)
			}
			est, err := trk.Push(s.Time, phase)
			if errors.Is(err, ErrTrackerNotReady) {
				continue
			}
			if err != nil {
				// A window too polluted to solve is itself the strongest
				// quality signal.
				if corrupt {
					return math.Inf(1)
				}
				t.Fatal(err)
			}
			if est.MeanAbsResidual > maxRes {
				maxRes = est.MeanAbsResidual
			}
		}
		return maxRes
	}
	clean := run(false)
	dirty := run(true)
	if dirty <= clean {
		t.Errorf("corruption did not raise residual: clean %v, dirty %v", clean, dirty)
	}
}

// TestTrackerRejectsNonFinitePhase: a NaN or ±Inf read is refused and leaves
// the window untouched, so a stream with such reads injected yields exactly
// the estimates of the clean stream.
func TestTrackerRejectsNonFinitePhase(t *testing.T) {
	env, err := sim.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	reader, err := sim.NewReader(env, sim.ReaderConfig{RateHz: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	trj, err := traject.NewLinear(geom.V3(-0.6, 0, 0), geom.V3(0.6, 0, 0), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := reader.Scan(&sim.Antenna{PhysicalCenter: geom.V3(0, 0.8, 0)}, &sim.Tag{}, trj)
	if err != nil {
		t.Fatal(err)
	}
	run := func(inject map[int]float64) []TrackEstimate {
		trk, err := NewTracker(baseConfig(env.Wavelength()))
		if err != nil {
			t.Fatal(err)
		}
		var out []TrackEstimate
		for i, s := range samples {
			if bad, ok := inject[i]; ok {
				n := trk.Len()
				if _, err := trk.Push(s.Time, bad); !errors.Is(err, ErrNonFiniteInput) {
					t.Fatalf("phase %v: err = %v, want ErrNonFiniteInput", bad, err)
				}
				if trk.Len() != n {
					t.Fatalf("phase %v changed the window length %d -> %d", bad, n, trk.Len())
				}
			}
			est, err := trk.Push(s.Time, s.Phase)
			if errors.Is(err, ErrTrackerNotReady) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, *est)
		}
		return out
	}
	clean := run(nil)
	dirty := run(map[int]float64{300: math.NaN(), 450: math.Inf(1), 451: math.Inf(-1)})
	if len(clean) < 20 {
		t.Fatalf("only %d estimates", len(clean))
	}
	if !reflect.DeepEqual(clean, dirty) {
		t.Errorf("non-finite reads changed the estimates:\nclean %v\ndirty %v", clean, dirty)
	}
}
