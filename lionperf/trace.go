package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one batch share its Batch index; a root span has Parent 0.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Batch  int    `json:"batch"` // -1 when the span belongs to no batch
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the leg started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced legs run.
type tracer struct {
	mu    sync.Mutex
	start time.Time
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{start: time.Now(), spans: make([]span, 0, 1<<16)} }

// newID reserves a span id, so a root can be named before its children.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// root records a span under an id reserved with newID.
func (t *tracer) root(id uint64, batch int, name string, s, e time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Batch: batch, Name: name,
		Start: int64(s.Sub(t.start)), End: int64(e.Sub(t.start))})
}

// span records a child of parent under a fresh id and returns that id.
func (t *tracer) span(parent uint64, batch int, name string, s, e time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Batch: batch, Name: name,
		Start: int64(s.Sub(t.start)), End: int64(e.Sub(t.start))})
	return t.next
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e9
	}
	return out
}

// covered returns how many nanoseconds of p's interval the union of its
// children's intervals covers.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, x := range iv {
		if x[0] > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// dump writes every span as one JSON object per line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
