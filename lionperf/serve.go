package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"time"

	"github.com/rfid-lion/lion/internal/wire"
)

// estimateDoc is the part of a liond estimate document the benchmark reads.
type estimateDoc struct {
	Window int      `json:"window"`
	ToS    float64  `json:"to_s"`
	X      *float64 `json:"x_m"`
	Y      *float64 `json:"y_m"`
	Error  string   `json:"error"`
}

// httpSink sends the plan to a live liond or lionroute. Sender and reader
// each get one keep-alive connection.
type httpSink struct {
	url       string
	post, get *http.Client
	tr        *tracer
}

func oneConnClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

func newHTTPSink(base string, tr *tracer) *httpSink {
	return &httpSink{url: base, post: oneConnClient(), get: oneConnClient(), tr: tr}
}

func (h *httpSink) close() {
	h.post.CloseIdleConnections()
	h.get.CloseIdleConnections()
}

func (h *httpSink) send(b *batchPlan, batch int, parent uint64) (int, error) {
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, h.url+"/v1/samples", bytes.NewReader(b.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := h.post.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var doc struct {
		Accepted int `json:"accepted"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse; the status decides
	h.tr.span(parent, batch, "http.post", start, time.Now())
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("ingest: status %d", resp.StatusCode)
	}
	return doc.Accepted, err
}

func (h *httpSink) read(tag string) (estimateDoc, error) {
	return getEstimate(h.get, h.url, tag)
}

func getEstimate(c *http.Client, base, tag string) (estimateDoc, error) {
	var doc estimateDoc
	resp, err := c.Get(base + "/v1/tags/" + url.PathEscape(tag) + "/estimate")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
		return doc, fmt.Errorf("estimate %s: status %d", tag, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	return doc, err
}

// finalEstimates waits until every tag's estimate served at base covers
// the tag's final window, and returns them.
func finalEstimates(base string, p *plan, limit time.Duration) (map[string]estimateDoc, error) {
	c := oneConnClient()
	defer c.CloseIdleConnections()
	return waitFinal(p, limit, func(tag string) (estimateDoc, bool) {
		doc, err := getEstimate(c, base, tag)
		return doc, err == nil
	})
}

// stepStats summarises one schedule step of a driven leg.
type stepStats struct {
	def       stepDef
	posts     int
	acked     int
	failed    int
	late      int
	latMS     []float64 // due to acknowledgment
	lagMS     []float64 // due to send start
	postMS    []float64 // send start to acknowledgment
	lastAck   time.Duration
	ageMS     []float64 // estimate age at the reads due in the step
	delivered float64   // acknowledged samples per second
	srvUtil   float64   // server CPU, cores
	genUtil   float64   // generator CPU, cores
	genCPU    float64   // generator CPU, seconds
	cpuUS     float64   // server CPU per acknowledged sample, µs
	rssMB     float64   // summed server peak RSS during the step
	steal     float64   // share of the machine's CPU time stolen by the hypervisor
	load      float64   // verdict as a share of the step's limits; <= 1 passes
	genBound  bool
	pass      bool
}

// servingStats is everything one driven leg measured.
type servingStats struct {
	steps   []*stepStats
	ref     *stepStats
	queryMS []float64 // reads due in the reference step, due to response
	ageMS   []float64 // response time minus the newest sample's creation
	// The reference step's p99s, each the median of the p99s of the
	// step's four quarters, so one short stall of the machine moves one
	// quarter, not the result.
	ingestP99, queryP99, ageP99 float64
	capacity                    float64
	attempted                   int
	failed                      int
}

// analyze turns a driven leg into per-step and reference-step statistics.
// nproc is the machine's CPU count, against which server headroom is judged.
func analyze(p *plan, d *driveResult, nproc int) *servingStats {
	st := &servingStats{}
	for i := range p.steps {
		st.steps = append(st.steps, &stepStats{def: p.steps[i]})
	}
	ref := p.steps[p.ref]
	inRef := func(due time.Duration) bool { return due >= ref.start && due < ref.start+ref.dur }
	quarter := func(due time.Duration) int { return min(3, int(4*(due-ref.start)/ref.dur)) }
	var ingest, query, age [4][]float64
	for i, b := range p.batches {
		r := d.posts[i]
		s := st.steps[b.step]
		s.posts++
		s.acked += r.accepted
		s.lastAck = max(s.lastAck, r.acked)
		lat := float64(r.acked-b.due) / 1e6
		s.latMS = append(s.latMS, lat)
		s.lagMS = append(s.lagMS, float64(r.sent-b.due)/1e6)
		s.postMS = append(s.postMS, float64(r.acked-r.sent)/1e6)
		if r.sent-b.due > lateAfter {
			s.late++
		}
		st.attempted++
		if r.failed {
			s.failed++
			st.failed++
		}
		if b.step == p.ref {
			ingest[quarter(b.due)] = append(ingest[quarter(b.due)], lat)
		}
	}
	for i, r := range p.reads {
		rr := d.reads[i]
		st.attempted++
		if rr.failed {
			st.failed++
			continue
		}
		ageMS := float64(rr.done)/1e6 - rr.doc.ToS*1e3
		// A step's backlog is judged on the reads in its second half, after
		// the estimates of the previous step's slower cadence have aged out.
		for _, s := range st.steps {
			if r.due >= s.def.start+s.def.dur/2 && r.due < s.def.start+s.def.dur {
				s.ageMS = append(s.ageMS, ageMS)
			}
		}
		if inRef(r.due) {
			q := quarter(r.due)
			queryMS := float64(rr.done-r.due) / 1e6
			st.queryMS = append(st.queryMS, queryMS)
			st.ageMS = append(st.ageMS, ageMS)
			query[q] = append(query[q], queryMS)
			age[q] = append(age[q], ageMS)
		}
	}
	for i, s := range st.steps {
		if i+1 < len(d.marks) {
			m0, m1 := d.marks[i], d.marks[i+1]
			if wall := (m1.wall - m0.wall).Seconds(); wall > 0 {
				s.srvUtil = (m1.server - m0.server) / wall
				s.genUtil = (m1.self - m0.self) / wall
			}
			s.genCPU = m1.self - m0.self
			s.rssMB = m1.rss
			if m1.ticks > m0.ticks {
				s.steal = float64(m1.steal-m0.steal) / float64(m1.ticks-m0.ticks)
			}
			if s.acked > 0 {
				s.cpuUS = (m1.server - m0.server) / float64(s.acked) * 1e6
			}
		}
		if s.posts == 0 {
			continue
		}
		s.delivered = float64(s.acked) / max(s.def.dur, s.lastAck-s.def.start).Seconds()
		p99 := quantile(s.latMS, 0.99)
		// load is the step's verdict as a share of its limits: ingest p99
		// against latencyLimitMS, and the estimate age p99 against one solve
		// cadence (every tag's solveEvery-th sample at this rate) plus the
		// latency limit, since a growing backlog shows as aging estimates.
		cadenceMS := float64(solveEvery*len(p.tags)) / s.def.rate * 1e3
		s.load = max(p99/latencyLimitMS, quantile(s.ageMS, 0.99)/(cadenceMS+latencyLimitMS))
		if s.failed > 0 {
			s.load = math.Inf(1)
		}
		s.pass = s.load <= 1
		// Generator-bound: the sender ran late more often than on time and
		// its lag, not the server's response time, makes up the tail, while
		// the server still had CPU to spare.
		lateRatio := float64(s.late) / float64(s.posts)
		headroom := float64(nproc) - s.genUtil
		s.genBound = lateRatio > 0.5 && quantile(s.lagMS, 0.99) >= 0.5*p99 && s.srvUtil < 0.75*headroom
	}
	st.ref = st.steps[p.ref]
	st.capacity = capacity(st.steps)
	st.ingestP99, st.queryP99, st.ageP99 = quarterP99(ingest), quarterP99(query), quarterP99(age)
	return st
}

// quarterP99 is the median of the four quarters' p99s.
func quarterP99(qs [4][]float64) float64 {
	var p99s []float64
	for _, q := range qs {
		p99s = append(p99s, quantile(q, 0.99))
	}
	return median(p99s)
}

// capacity is the highest rate that meets the step limits: the rate where
// the verdict crosses its limit, interpolated between the highest passing
// step and the step above it, or the passing step's delivered rate when it
// is the top step or the step above is generator-bound (no evidence).
func capacity(steps []*stepStats) float64 {
	var m []*stepStats
	for _, s := range steps {
		if s.def.measured {
			m = append(m, s)
		}
	}
	hi := -1
	for i, s := range m {
		if s.pass && !s.genBound {
			hi = i
		}
	}
	if hi < 0 {
		return 0
	}
	last := m[hi]
	if hi+1 == len(m) {
		return last.delivered
	}
	next := m[hi+1]
	if next.genBound || math.IsInf(next.load, 1) {
		return last.delivered
	}
	frac := (1 - last.load) / (next.load - last.load)
	return last.delivered + frac*(next.def.rate-last.delivered)
}
