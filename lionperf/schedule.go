package main

import (
	"fmt"
	"slices"
	"time"

	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/load"
	"github.com/rfid-lion/lion/internal/wire"
)

// Load shape of the serving workloads. The sender posts postRate requests
// per second at every step and the batch grows with the step's rate, so
// the one sender connection keeps pace at every step and the servers, not
// the generator, meet the knee. The reader polls one tag's estimate every
// readEvery. Both schedules are fixed before the run starts (open loop).
const (
	postRate  = 125
	readEvery = 5 * time.Millisecond
	// refRate is the reference step's offered load in samples/s, well
	// below the knee of a single liond on a 2-CPU machine.
	refRate = 8000
	// latencyLimitMS is the ingest p99 a capacity step must meet. It sits
	// well above the reference step's p99 on a loaded 2-CPU machine, so a
	// step fails when the servers run out of CPU and a backlog builds, not
	// when the machine's scheduling tail widens.
	latencyLimitMS = 50
	// lateAfter is how far behind its due time a send must start to count
	// as late; it sits above the sleep overshoot of an idle generator.
	lateAfter = time.Millisecond
)

// stepScales are the capacity steps above the CPU step, as multiples of
// refRate, rising to past the knee.
var stepScales = []float64{4, 6, 8, 10, 12, 16}

// liond's shipped defaults that the correctness gate depends on.
const (
	solveEvery = 16  // -every
	windowSize = 256 // -window
	smoothWin  = 9   // -smooth
	minSamples = 8   // -min
	interval   = 0.2 // -intervals
)

// stepDef is one stretch of the schedule at a constant offered rate.
type stepDef struct {
	name     string
	rate     float64 // offered samples/s
	start    time.Duration
	dur      time.Duration
	measured bool // false for the warm-up and the alignment tail
}

// batchPlan is one scheduled POST: its due time and its pre-encoded wire
// frame, whose samples carry the due time as their creation time. Only the
// frame is kept; the samples are decoded again where a check needs them.
type batchPlan struct {
	due  time.Duration
	step int
	n    int // samples in the frame
	body []byte
}

func (b *batchPlan) decode(into []dataset.TaggedSample) ([]dataset.TaggedSample, error) {
	out, _, err := wire.DecodeFrame(b.body, into[:0])
	return out, err
}

// readPlan is one scheduled estimate read.
type readPlan struct {
	due time.Duration
	tag string
}

// plan is the whole serving schedule of one run.
type plan struct {
	steps   []stepDef
	ref     int // index of the reference step
	cpu     int // index of the step server CPU per sample is taken over
	batches []batchPlan
	reads   []readPlan
	tags    []string       // in the fleet's order
	counts  map[string]int // samples sent per tag over the whole plan
	fill    []dataset.TaggedSample
}

// buildPlan lays out the serving schedule over total: a warm-up at the
// reference rate that fills every tag's window, the reference step, the
// CPU step, and the capacity steps. A short tail at the reference rate follows so that
// every tag ends with a whole number of solve cadences; the final estimate
// of every tag then covers exactly its last window, which the correctness
// gate re-solves offline.
func buildPlan(seed int64, total time.Duration) (*plan, error) {
	sc, err := load.Lookup("portal")
	if err != nil {
		return nil, err
	}
	fleet, err := load.BuildFleet(sc, seed)
	if err != nil {
		return nil, err
	}
	unit := total * 2 / time.Duration(17+2*len(stepScales))
	p := &plan{counts: map[string]int{}}
	add := func(name string, rate float64, dur time.Duration, measured bool) {
		start := time.Duration(0)
		if n := len(p.steps); n > 0 {
			start = p.steps[n-1].start + p.steps[n-1].dur
		}
		p.steps = append(p.steps, stepDef{name: name, rate: rate, start: start, dur: dur, measured: measured})
	}
	add("warmup", refRate, 3*unit/2, false)
	p.ref = len(p.steps)
	add("ref", refRate, 4*unit, true)
	// The CPU step runs at twice the reference rate, the first capacity
	// step: batches of 128 samples amortise the HTTP request, so window
	// solves take a larger share of the server's CPU than at the reference
	// step, and a solver change shows more clearly.
	p.cpu = len(p.steps)
	add("x2", 2*refRate, 3*unit, true)
	for _, s := range stepScales {
		add(fmt.Sprintf("x%g", s), refRate*s, unit, true)
	}
	iv := time.Second / postRate
	sent := 0
	for si, st := range p.steps {
		for off := time.Duration(0); off < st.dur; off += iv {
			sent += p.addBatch(fleet, st.start+off, si, int(st.rate)/postRate)
		}
	}
	last := p.steps[len(p.steps)-1]
	add("tail", refRate, 0, false)
	tail := len(p.steps) - 1
	due := last.start + last.dur
	for sent%(fleet.Tags()*solveEvery) != 0 {
		sent += p.addBatch(fleet, due, tail, refRate/postRate)
		due += iv
	}
	p.steps[tail].dur = due - p.steps[tail].start
	p.fill = nil
	if len(p.tags) != fleet.Tags() {
		return nil, fmt.Errorf("plan: %d tags sent, fleet has %d", len(p.tags), fleet.Tags())
	}
	ref := p.steps[p.ref]
	for t, i := ref.start, 0; t < last.start+last.dur; t, i = t+readEvery, i+1 {
		p.reads = append(p.reads, readPlan{due: t, tag: p.tags[i%len(p.tags)]})
	}
	return p, nil
}

func (p *plan) addBatch(fleet *load.Fleet, due time.Duration, step, size int) int {
	if cap(p.fill) < size {
		p.fill = make([]dataset.TaggedSample, size)
	}
	buf := p.fill[:size]
	fleet.Fill(buf, due.Seconds())
	body, err := wire.AppendFrame(nil, buf)
	if err != nil {
		// Fleet samples are finite and tagged; an encode failure is a bug.
		panic(fmt.Sprintf("plan: encode batch: %v", err))
	}
	for _, s := range buf {
		if p.counts[s.Tag] == 0 {
			p.tags = append(p.tags, s.Tag)
		}
		p.counts[s.Tag]++
	}
	p.batches = append(p.batches, batchPlan{due: due, step: step, n: size, body: body})
	return size
}

// tagWindows returns every tag's final window: the last windowSize
// samples sent for it, oldest first. Only the frames at the end of the
// plan are decoded.
func (p *plan) tagWindows() (map[string][]dataset.TaggedSample, error) {
	wins := map[string][]dataset.TaggedSample{}
	open := len(p.tags)
	var buf []dataset.TaggedSample
	for i := len(p.batches) - 1; i >= 0 && open > 0; i-- {
		var err error
		if buf, err = p.batches[i].decode(buf); err != nil {
			return nil, err
		}
		for j := len(buf) - 1; j >= 0; j-- {
			want := min(p.counts[buf[j].Tag], windowSize)
			if w := wins[buf[j].Tag]; len(w) < want {
				wins[buf[j].Tag] = append(w, buf[j])
				if len(w)+1 == want {
					open--
				}
			}
		}
	}
	for _, w := range wins {
		slices.Reverse(w)
	}
	return wins, nil
}
