package main

import (
	"fmt"
	"math"
	"time"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/stream"
)

// estimateTol is how far (metres, per coordinate) a served estimate may sit
// from the offline solve of the same window. Both run the same code on the
// same samples, so anything beyond rounding is a pipeline fault.
const estimateTol = 1e-9

// fleetAntenna is where load.BuildFleet places the antenna the portal
// fleet is read by.
var fleetAntenna = geom.V3(0, 1.5, 0.5)

// lineSolver is liond's default window solver.
func lineSolver() stream.Solver {
	return stream.Line2DSolver(rf.DefaultBand().Wavelength(), []float64{interval}, true, core.DefaultSolveOptions())
}

func toStream(win []dataset.TaggedSample) []stream.Sample {
	out := make([]stream.Sample, len(win))
	for i, s := range win {
		out[i] = stream.FromSim(s.Sample())
	}
	return out
}

// checkFinal is the correctness gate of a serving leg: every tag's final
// estimate must equal stream.SolveWindow run offline on the tag's final
// window.
func checkFinal(p *plan, got map[string]estimateDoc) error {
	wins, err := p.tagWindows()
	if err != nil {
		return err
	}
	solver := lineSolver()
	for _, tag := range p.tags {
		doc, ok := got[tag]
		if !ok {
			return fmt.Errorf("tag %s: no final estimate", tag)
		}
		sol, err := stream.SolveWindow(toStream(wins[tag]), smoothWin, solver, nil)
		if err != nil {
			if doc.Error == "" {
				return fmt.Errorf("tag %s: offline solve failed (%v), served estimate did not", tag, err)
			}
			continue
		}
		if doc.Error != "" || doc.X == nil || doc.Y == nil {
			return fmt.Errorf("tag %s: served estimate failed (%q), offline solve did not", tag, doc.Error)
		}
		if math.Abs(*doc.X-sol.Position.X) > estimateTol || math.Abs(*doc.Y-sol.Position.Y) > estimateTol {
			return fmt.Errorf("tag %s: served (%.12g, %.12g) vs offline (%.12g, %.12g)",
				tag, *doc.X, *doc.Y, sol.Position.X, sol.Position.Y)
		}
	}
	return nil
}

// readLocErrors returns the localization error, in centimetres, of every
// solved estimate read during the reference step. An estimate names its
// window by its length and its newest sample's creation time. Every batch
// before and at the reference step carries the same number of samples per
// tag, a divisor of the solve cadence, so a solve always ends on a tag's
// last sample in its batch: the one indexed under that creation time.
func readLocErrors(p *plan, d *driveResult) ([]float64, error) {
	seq := map[string][]dataset.TaggedSample{}
	at := map[string]map[int64]int{}
	var buf []dataset.TaggedSample
	for _, b := range p.batches {
		if b.step > p.ref {
			break
		}
		var err error
		if buf, err = b.decode(buf); err != nil {
			return nil, err
		}
		for _, s := range buf {
			if at[s.Tag] == nil {
				at[s.Tag] = map[int64]int{}
			}
			at[s.Tag][dueKey(s.TimeS)] = len(seq[s.Tag])
			seq[s.Tag] = append(seq[s.Tag], s)
		}
	}
	ref := p.steps[p.ref]
	var out []float64
	for i, r := range p.reads {
		doc := d.reads[i].doc
		if r.due < ref.start || r.due >= ref.start+ref.dur || d.reads[i].failed || doc.X == nil || doc.Y == nil {
			continue
		}
		j, ok := at[r.tag][dueKey(doc.ToS)]
		if !ok || j+1 < doc.Window {
			return nil, fmt.Errorf("tag %s: estimate names a window of %d ending at %v s that was never sent",
				r.tag, doc.Window, doc.ToS)
		}
		truth := lineFrameTruth(toStream(seq[r.tag][j+1-doc.Window : j+1]))
		out = append(out, geom.V2(*doc.X, *doc.Y).Sub(truth).Norm()*100)
	}
	return out, nil
}

// lineFrameTruth is the antenna position as the line solver can report it
// for this window: the solver places the antenna on the +90° side of the
// window's direction of travel (first to last sample), at the along-track
// coordinate of the antenna and at its 3-D distance from the tag's line.
func lineFrameTruth(win []stream.Sample) geom.Vec2 {
	first, last := win[0].Pos.XY(), win[len(win)-1].Pos.XY()
	u := last.Sub(first).Unit()
	origin := win[len(win)/2].Pos
	rel := fleetAntenna.Sub(origin)
	along := rel.XY().Dot(u)
	perp := math.Sqrt(math.Max(rel.Dot(rel)-along*along, 0))
	return origin.XY().Add(u.Scale(along)).Add(u.Perp().Scale(perp))
}

// checkFidelity is the replay fidelity guard: the traced in-process
// replay's final estimates must match the server processes' final
// estimates for the same batches, or the replay no longer mirrors liond
// and its layer times would be charged to the wrong layers.
func checkFidelity(server, replay map[string]estimateDoc) error {
	for tag, s := range server {
		r, ok := replay[tag]
		if !ok {
			return fmt.Errorf("replay fidelity: tag %s missing from the replay", tag)
		}
		if (s.X == nil) != (r.X == nil) || (s.Y == nil) != (r.Y == nil) {
			return fmt.Errorf("replay fidelity: tag %s solved on one side only", tag)
		}
		if s.X != nil && (math.Abs(*s.X-*r.X) > estimateTol || math.Abs(*s.Y-*r.Y) > estimateTol) {
			return fmt.Errorf("replay fidelity: tag %s server (%.12g, %.12g) vs replay (%.12g, %.12g)",
				tag, *s.X, *s.Y, *r.X, *r.Y)
		}
		if s.Window != r.Window || s.ToS != r.ToS {
			return fmt.Errorf("replay fidelity: tag %s window %d@%v vs %d@%v", tag, s.Window, s.ToS, r.Window, r.ToS)
		}
	}
	return nil
}

// estimateFromEngine renders an in-process estimate like liond serves it.
func estimateFromEngine(est stream.Estimate) estimateDoc {
	doc := estimateDoc{Window: est.Window, ToS: est.To.Seconds()}
	if est.Err != nil {
		doc.Error = est.Err.Error()
	}
	if sol := est.Solution; sol != nil {
		if x := sol.Position.X; !math.IsNaN(x) && !math.IsInf(x, 0) {
			doc.X = &x
		}
		if y := sol.Position.Y; !math.IsNaN(y) && !math.IsInf(y, 0) {
			doc.Y = &y
		}
	}
	return doc
}

// waitFinal polls fetch until every tag's estimate covers its final window.
func waitFinal(p *plan, limit time.Duration, fetch func(tag string) (estimateDoc, bool)) (map[string]estimateDoc, error) {
	wins, err := p.tagWindows()
	if err != nil {
		return nil, err
	}
	out := map[string]estimateDoc{}
	deadline := time.Now().Add(limit)
	for _, tag := range p.tags {
		want := min(p.counts[tag], windowSize)
		last := wins[tag][len(wins[tag])-1].TimeS
		for {
			doc, ok := fetch(tag)
			if ok && doc.Window == want && doc.ToS == last {
				out[tag] = doc
				break
			}
			if time.Now().After(deadline) {
				return out, fmt.Errorf("tag %s: final estimate not published within %v (want window %d ending at %v s, have %d ending at %v s)",
					tag, limit, want, last, doc.Window, doc.ToS)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return out, nil
}
