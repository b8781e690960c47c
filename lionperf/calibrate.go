package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/rfid-lion/lion/internal/batch"
	"github.com/rfid-lion/lion/internal/calib"
	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/traject"
)

// calibAntennas is the size of the simulated antenna fleet calibrated in
// every run. The error percentiles are taken over it, so it is sized for a
// p90 that moves little from seed to seed.
const calibAntennas = 128

// antennaScan is one simulated antenna's three-line calibration scan and
// its injected ground truth.
type antennaScan struct {
	positions []geom.Vec3
	phases    []float64
	labels    []int
	center    geom.Vec3 // true phase center
	offset    float64   // true Δθ = θ_T + θ_R, wrapped
}

// buildScans simulates the calibration fleet: every antenna gets its own
// phase-center displacement (2 cm standard deviation per axis, the scale
// the paper measures), its own antenna and tag phase offsets, and its own
// reader noise stream. The scan is lionsim's default three-line sweep.
func buildScans(seed int64) ([]antennaScan, error) {
	env, err := sim.NewEnvironment()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	trj, err := traject.NewThreeLineScan(traject.ThreeLineConfig{
		XMin: -0.6, XMax: 0.6, YSpacing: 0.2, ZSpacing: 0.2, Speed: 0.1,
	})
	if err != nil {
		return nil, err
	}
	out := make([]antennaScan, calibAntennas)
	for i := range out {
		ant := &sim.Antenna{
			ID:             fmt.Sprintf("CAL-%03d", i),
			PhysicalCenter: geom.V3(0, 0.8, 0),
			PhaseCenterOffset: geom.V3(0.02*rng.NormFloat64(),
				0.02*rng.NormFloat64(), 0.02*rng.NormFloat64()),
			PhaseOffset: 2 * math.Pi * rng.Float64(),
		}
		tag := &sim.Tag{ID: "CAL-TAG", PhaseOffset: 2 * math.Pi * rng.Float64()}
		reader, err := sim.NewReader(env, sim.ReaderConfig{RateHz: 100, Seed: rng.Int63()})
		if err != nil {
			return nil, err
		}
		samples, err := reader.Scan(ant, tag, trj)
		if err != nil {
			return nil, err
		}
		sc := antennaScan{
			positions: sim.Positions(samples),
			phases:    sim.Phases(samples),
			labels:    make([]int, len(samples)),
			center:    ant.PhaseCenter(),
			offset:    rf.WrapPhase(ant.PhaseOffset + tag.PhaseOffset),
		}
		for j, s := range samples {
			sc.labels[j] = s.Segment
		}
		out[i] = sc
	}
	return out, nil
}

// calResult is one antenna's calibration and its timing.
type calResult struct {
	center     geom.Vec3
	offset     float64
	start, end time.Time
	prep       time.Duration // core.Preprocess
	locate     time.Duration // calib.LocateScan
	phase      time.Duration // core.PhaseOffset
}

// calibrateOne runs lioncal's pipeline with its defaults: core.Preprocess,
// the adaptive three-line calib.LocateScan, then the Eq. 17
// core.PhaseOffset. A tracer records one span per step under the job's
// root span id.
func calibrateOne(sc *antennaScan, lambda float64, tr *tracer, job int, id uint64) (calResult, error) {
	res := calResult{start: time.Now()}
	obs, err := core.Preprocess(sc.positions, sc.phases, smoothWin)
	t1 := time.Now()
	if err != nil {
		return res, err
	}
	center, err := calib.LocateScan("threeline", obs, sc.labels, calib.ScanConfig{
		Lambda: lambda, Interval: interval, ScanRange: 0.8, Adaptive: true, PositiveSide: true,
	})
	t2 := time.Now()
	if err != nil {
		return res, err
	}
	offset, err := core.PhaseOffset(sc.positions, sc.phases, center, lambda)
	res.end = time.Now()
	if err != nil {
		return res, err
	}
	tr.span(id, job, "dsp.preprocess", res.start, t1)
	tr.span(id, job, "core.threeline", t1, t2)
	tr.span(id, job, "core.phase_offset", t2, res.end)
	res.center, res.offset = center, offset
	res.prep, res.locate, res.phase = t1.Sub(res.start), t2.Sub(t1), res.end.Sub(t2)
	return res, nil
}

// calibStats is what the calibration segment measured.
type calibStats struct {
	jobs, failed int
	perS         float64 // median over passes of antennas per second
	latMS        []float64
	waitMS       []float64 // pool queue wait per job
	prepMS       []float64
	locateMS     []float64
	phaseUS      []float64
	centerErrMM  []float64
	offsetErrMR  []float64
}

// runCalibration calibrates the antenna fleet in closed loop through a
// pool of nproc workers, pass after pass, until budget is spent (at least
// one pass). Every pooled result must be bit-identical to a single-worker
// run of the same antenna; a mismatch is returned as an error.
func runCalibration(ctx context.Context, scans []antennaScan, nproc int, budget time.Duration, tr *tracer) (*calibStats, error) {
	lambda := rf.DefaultBand().Wavelength()
	pool := batch.New(batch.Options{Workers: nproc})
	st := &calibStats{}
	var first []calResult
	var passRates []float64
	begin := time.Now()
	for pass := 0; pass == 0 || time.Since(begin) < budget; pass++ {
		passStart := time.Now()
		jobs := make([]batch.Job, len(scans))
		for i := range scans {
			jobs[i] = func(context.Context) (any, error) {
				id := tr.newID()
				r, err := calibrateOne(&scans[i], lambda, tr, i, id)
				tr.span(id, i, "batch.queue_wait", passStart, r.start)
				tr.root(id, i, "calib.job", passStart, r.end)
				return r, err
			}
		}
		outs := pool.Run(ctx, jobs)
		passWall := time.Since(passStart)
		results := make([]calResult, len(outs))
		done := 0
		for i, o := range outs {
			st.jobs++
			if o.Err != nil {
				st.failed++
				continue
			}
			r := o.Value.(calResult)
			results[i] = r
			done++
			st.latMS = append(st.latMS, float64(r.end.Sub(r.start))/1e6)
			st.waitMS = append(st.waitMS, float64(r.start.Sub(passStart))/1e6)
			st.prepMS = append(st.prepMS, float64(r.prep)/1e6)
			st.locateMS = append(st.locateMS, float64(r.locate)/1e6)
			st.phaseUS = append(st.phaseUS, float64(r.phase)/1e3)
		}
		passRates = append(passRates, float64(done)/passWall.Seconds())
		if first == nil {
			first = results
		} else if err := sameCalibrations(first, results); err != nil {
			return nil, fmt.Errorf("calibration pass %d differs from pass 0: %w", pass, err)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	st.perS = median(passRates)
	serial := make([]calResult, len(scans))
	for i := range scans {
		r, err := calibrateOne(&scans[i], lambda, nil, i, 0)
		if err != nil {
			st.failed++
		}
		serial[i] = r
	}
	if err := sameCalibrations(serial, first); err != nil {
		return nil, fmt.Errorf("pooled calibration differs from a single-worker run: %w", err)
	}
	for i, r := range first {
		st.centerErrMM = append(st.centerErrMM, r.center.Dist(scans[i].center)*1e3)
		d := math.Abs(rf.WrapPhase(r.offset-scans[i].offset+math.Pi) - math.Pi)
		st.offsetErrMR = append(st.offsetErrMR, d*1e3)
	}
	return st, nil
}

// sameCalibrations compares two runs over the same antennas bit for bit.
func sameCalibrations(a, b []calResult) error {
	for i := range a {
		if a[i].center != b[i].center || math.Float64bits(a[i].offset) != math.Float64bits(b[i].offset) {
			return fmt.Errorf("antenna %d: center %v offset %v vs center %v offset %v",
				i, a[i].center, a[i].offset, b[i].center, b[i].offset)
		}
	}
	return nil
}
