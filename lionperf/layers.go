package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/rfid-lion/lion/internal/cluster"
	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/health"
	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/stream"
	"github.com/rfid-lion/lion/internal/wire"
)

// dueKey identifies a batch by its due time in microseconds; estimates name
// the batch that carried their newest sample by the same creation time.
func dueKey(seconds float64) int64 { return int64(math.Round(seconds * 1e6)) }

// solveRec is one timed call of the benchmark-owned window solver.
type solveRec struct {
	start, end time.Time
	iters      int
}

// solveLog collects the wrapped solver's calls. Solves run on the engine's
// pool goroutines and are matched to published estimates by the Solution
// pointer they returned.
type solveLog struct {
	mu    sync.Mutex
	open  map[*core.Solution]solveRec
	durUS []float64
	iters []float64
	busy  time.Duration
}

// wrap returns a stream.Solver that times every call into inner.
func (l *solveLog) wrap(inner stream.Solver) stream.Solver {
	return func(win []core.PosPhase, tr *obs.Tracer) (*core.Solution, error) {
		start := time.Now()
		sol, err := inner(win, tr)
		end := time.Now()
		l.mu.Lock()
		defer l.mu.Unlock()
		l.busy += end.Sub(start)
		l.durUS = append(l.durUS, float64(end.Sub(start))/1e3)
		if err != nil || sol == nil {
			return sol, err
		}
		l.iters = append(l.iters, float64(sol.Iterations))
		l.open[sol] = solveRec{start: start, end: end, iters: sol.Iterations}
		return sol, err
	}
}

func (l *solveLog) take(sol *core.Solution) (solveRec, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.open[sol]
	delete(l.open, sol)
	return r, ok
}

// acceptRec is when a batch entered the engine, and its root span.
type acceptRec struct {
	at   time.Time
	span uint64
}

// layerStats are the per-layer numbers of a traced in-process leg.
type layerStats struct {
	encNS, decNS         time.Duration
	samples, wireBytes   int
	ingestUS             []float64 // stream.Engine.IngestTagged or cluster.Router.Ingest
	latestUS             []float64
	healthSampleNS       time.Duration
	healthSolveNS        time.Duration
	healthSolves         int
	obsNS                time.Duration
	publishUS, freshMS   []float64
	queueWaitMS          []float64
	solves               *solveLog
	snapshots, coalesced uint64
	preprocessUS         []float64
	wall                 time.Duration // engine legs: drive start to close

	forward *forwardLog
	rejects int
	qPeak   int64
	shards  map[string]int
}

// mirrorEngine builds a stream.Engine configured like liond with its
// shipped defaults (see cmd/liond parseFlags and buildPipeline). The
// replay fidelity guard fails the traced run when the two drift apart.
func mirrorEngine(solver stream.Solver) (*stream.Engine, error) {
	reg := obs.NewRegistry()
	rules := health.DefaultRules()
	for i := range rules {
		if rules[i].Signal == health.SignalDrift {
			rules[i].Threshold = 0.02
			rules[i].HoldDown = 2 * time.Second
		}
	}
	mon, err := health.New(health.Config{Rules: rules, Registry: reg})
	if err != nil {
		return nil, err
	}
	return stream.New(stream.Config{
		WindowSize: windowSize,
		MinSamples: minSamples,
		SolveEvery: solveEvery,
		Smooth:     smoothWin,
		Policy:     stream.EvictOldest,
		Solver:     solver,
		Registry:   reg,
		Monitor:    mon,
		Antenna:    "A1",
		Spans:      obs.NewSpanLog("liond", 4096),
		// liond has no subscribers; a deep buffer keeps the benchmark's
		// own subscriber from losing estimates.
		SubBuffer: 1 << 16,
	})
}

// engineSink replays batches in process the way liond's ingest handler
// does: decode the wire frame, convert, and IngestTagged under one engine
// lock. With a tracer it also times the codec both ways and probes the
// health monitor and the obs histogram with the same samples.
type engineSink struct {
	eng  *stream.Engine
	tr   *tracer
	src  []dataset.TaggedSample // the batch's samples, to encode afresh
	enc  []byte
	dec  []dataset.TaggedSample
	conv []stream.Tagged
	ls   *layerStats

	mu     sync.Mutex
	accept map[int64]acceptRec

	probe *health.Monitor
	hist  *obs.Histogram
}

func (s *engineSink) send(b *batchPlan, batch int, parent uint64) (int, error) {
	if s.tr == nil {
		var err error
		if s.dec, _, err = wire.DecodeFrame(b.body, s.dec[:0]); err != nil {
			return 0, err
		}
		acc, _, err := s.eng.IngestTagged(s.convert())
		return acc, err
	}
	var err error
	if s.src, err = b.decode(s.src); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if s.enc, err = wire.AppendFrame(s.enc[:0], s.src); err != nil {
		return 0, err
	}
	t1 := time.Now()
	if s.dec, _, err = wire.DecodeFrame(s.enc, s.dec[:0]); err != nil {
		return 0, err
	}
	t2 := time.Now()
	conv := s.convert()
	t3 := time.Now()
	s.mu.Lock()
	s.accept[dueKey(b.due.Seconds())] = acceptRec{at: t3, span: parent}
	s.mu.Unlock()
	acc, _, err := s.eng.IngestTagged(conv)
	t4 := time.Now()
	s.tr.span(parent, batch, "wire.encode", t0, t1)
	s.tr.span(parent, batch, "wire.decode", t1, t2)
	s.tr.span(parent, batch, "stream.ingest", t3, t4)
	ls := s.ls
	ls.encNS += t1.Sub(t0)
	ls.decNS += t2.Sub(t1)
	ls.samples += b.n
	ls.wireBytes += len(s.enc)
	ls.ingestUS = append(ls.ingestUS, float64(t4.Sub(t3))/1e3)

	h0 := time.Now()
	for _, ts := range conv {
		s.probe.ObserveSample("A1", ts.Sample.Time, ts.Sample.Pos, ts.Sample.Phase)
	}
	h1 := time.Now()
	for _, ts := range conv {
		s.hist.Observe(ts.Sample.Phase)
	}
	h2 := time.Now()
	ls.healthSampleNS += h1.Sub(h0)
	ls.obsNS += h2.Sub(h1)
	return acc, err
}

func (s *engineSink) convert() []stream.Tagged {
	s.conv = s.conv[:0]
	for _, ts := range s.dec {
		s.conv = append(s.conv, stream.Tagged{Tag: ts.Tag, Sample: stream.FromSim(ts.Sample())})
	}
	return s.conv
}

func (s *engineSink) read(tag string) (estimateDoc, error) {
	t0 := time.Now()
	est, ok := s.eng.Latest(tag)
	t1 := time.Now()
	if s.tr != nil {
		s.ls.latestUS = append(s.ls.latestUS, float64(t1.Sub(t0))/1e3)
	}
	if !ok {
		return estimateDoc{}, fmt.Errorf("no estimate for %s", tag)
	}
	return estimateFromEngine(est), nil
}

// subscribe consumes published estimates until the engine closes, matching
// each to the solve that produced it and to the batch that carried its
// newest sample.
func (s *engineSink) subscribe() (wait func()) {
	ch, _ := s.eng.Subscribe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for est := range ch {
			recv := time.Now()
			if est.Solution == nil {
				continue
			}
			rec, ok := s.ls.solves.take(est.Solution)
			if !ok {
				continue
			}
			s.mu.Lock()
			acc, known := s.accept[dueKey(est.To.Seconds())]
			s.mu.Unlock()
			ls := s.ls
			ls.publishUS = append(ls.publishUS, float64(recv.Sub(rec.end))/1e3)
			ls.freshMS = append(ls.freshMS, float64(recv.Sub(s.tr.start.Add(est.To)))/1e6)
			parent, batch := uint64(0), -1
			if known {
				ls.queueWaitMS = append(ls.queueWaitMS, float64(rec.start.Sub(acc.at))/1e6)
				parent = acc.span
			}
			s.tr.span(parent, batch, "core.solve", rec.start, rec.end)
			s.tr.span(parent, batch, "stream.publish", rec.end, recv)
			h0 := time.Now()
			s.probe.ObserveSolve(health.SolveObservation{
				Tag: est.Tag, Antenna: "A1", Time: est.To, Window: est.Window, Seq: est.Seq,
				Residual: est.Solution.MeanResidual, Condition: est.Solution.ConditionEstimate,
				Iterations: rec.iters, Latency: est.Latency,
			})
			ls.healthSolveNS += time.Since(h0)
			ls.healthSolves++
		}
	}()
	return func() { <-done }
}

// runEngineLeg replays the plan into a liond-mirroring engine in process.
// A non-nil tracer adds spans, layer probes and the final estimates; an
// untraced leg only times the batches and reads.
func runEngineLeg(ctx context.Context, p *plan, tr *tracer) (*driveResult, *layerStats, map[string]estimateDoc, error) {
	ls := &layerStats{solves: &solveLog{open: map[*core.Solution]solveRec{}}}
	solver := lineSolver()
	if tr != nil {
		solver = ls.solves.wrap(solver)
	}
	eng, err := mirrorEngine(solver)
	if err != nil {
		return nil, nil, nil, err
	}
	sink := &engineSink{eng: eng, tr: tr, ls: ls, accept: map[int64]acceptRec{}}
	var wait func()
	if tr != nil {
		if sink.probe, err = health.New(health.Config{}); err != nil {
			return nil, nil, nil, err
		}
		// A private registry: the probe has the name and buckets of the
		// engine's queue-wait histogram without touching the engine's own.
		sink.hist = obs.NewRegistry().Histogram("lion_stream_queue_wait_seconds",
			"Observe-cost probe shaped like the engine's queue-wait histogram.", obs.DefBuckets)
		wait = sink.subscribe()
	}
	d := drive(ctx, p, sink, nil, tr)
	var final map[string]estimateDoc
	if tr != nil {
		final, err = waitFinal(p, 10*time.Second, func(tag string) (estimateDoc, bool) {
			est, ok := eng.Latest(tag)
			return estimateFromEngine(est), ok
		})
	}
	m := eng.Metrics()
	ls.snapshots, ls.coalesced = m.Solves, m.Coalesced
	ls.wall = time.Since(d.start)
	cerr := eng.Close(context.Background())
	if wait != nil {
		wait()
	}
	if err == nil && cerr != nil {
		err = fmt.Errorf("close mirror engine: %w", cerr)
	}
	if err == nil && tr != nil {
		err = timePreprocess(p, ls)
	}
	return d, ls, final, err
}

// timePreprocess times core.Preprocess, liond's unwrap-and-smooth step, on
// every tag's final window.
func timePreprocess(p *plan, ls *layerStats) error {
	wins, err := p.tagWindows()
	if err != nil {
		return err
	}
	for _, tag := range p.tags {
		win := wins[tag]
		pos := make([]geom.Vec3, len(win))
		ph := make([]float64, len(win))
		for i, s := range win {
			pos[i] = geom.V3(s.X, s.Y, s.Z)
			ph[i] = s.Phase
		}
		t0 := time.Now()
		_, err := core.Preprocess(pos, ph, smoothWin)
		ls.preprocessUS = append(ls.preprocessUS, float64(time.Since(t0))/1e3)
		if err != nil {
			return fmt.Errorf("preprocess tag %s: %w", tag, err)
		}
	}
	return nil
}

// forwardLog times the router's forward POSTs through its http.Client.
type forwardLog struct {
	base    http.RoundTripper
	tr      *tracer
	mu      sync.Mutex
	durMS   []float64
	samples []float64
	failed  int
}

func (f *forwardLog) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || !strings.HasSuffix(req.URL.Path, "/v1/samples") || req.Body == nil {
		return f.base.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	n := 0
	if ss, derr := wire.DecodeIngest(bytes.NewReader(body)); derr == nil {
		n = len(ss)
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	start := time.Now()
	resp, err := f.base.RoundTrip(req)
	end := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if err != nil || resp.StatusCode != http.StatusOK {
		f.failed++
	} else {
		f.durMS = append(f.durMS, float64(end.Sub(start))/1e6)
		f.samples = append(f.samples, float64(n))
	}
	f.tr.span(0, -1, "cluster.forward", start, end)
	return resp, err
}

// routerSink replays batches into an in-process cluster.Router the way
// lionroute's ingest handler does (decode, then Router.Ingest), in front
// of real liond shard processes. Reads go through the router's own HTTP
// routes, so the estimate proxy hop stays on the path.
type routerSink struct {
	rt   *cluster.Router
	tr   *tracer
	src  []dataset.TaggedSample
	enc  []byte
	dec  []dataset.TaggedSample
	get  *http.Client
	base string
	ls   *layerStats
}

func (s *routerSink) send(b *batchPlan, batch int, parent uint64) (int, error) {
	var err error
	body := b.body
	if s.tr != nil {
		if s.src, err = b.decode(s.src); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	if s.tr != nil {
		if s.enc, err = wire.AppendFrame(s.enc[:0], s.src); err != nil {
			return 0, err
		}
		body = s.enc
	}
	t1 := time.Now()
	if s.dec, _, err = wire.DecodeFrame(body, s.dec[:0]); err != nil {
		return 0, err
	}
	t2 := time.Now()
	res, err := s.rt.Ingest(s.dec)
	t3 := time.Now()
	if s.tr == nil {
		return res.Accepted, err
	}
	s.tr.span(parent, batch, "wire.encode", t0, t1)
	s.tr.span(parent, batch, "wire.decode", t1, t2)
	s.tr.span(parent, batch, "cluster.ingest", t2, t3)
	ls := s.ls
	ls.encNS += t1.Sub(t0)
	ls.decNS += t2.Sub(t1)
	ls.samples += b.n
	ls.wireBytes += len(s.enc)
	ls.ingestUS = append(ls.ingestUS, float64(t3.Sub(t2))/1e3)
	ls.rejects += res.Rejected
	for _, st := range s.rt.Status() {
		ls.qPeak = max(ls.qPeak, st.Queued)
	}
	for _, ts := range s.dec {
		ls.shards[s.rt.Owner(ts.Tag)]++
	}
	return res.Accepted, err
}

func (s *routerSink) read(tag string) (estimateDoc, error) {
	return getEstimate(s.get, s.base, tag)
}

// runRouterLeg replays the plan through an in-process cluster.Router in
// front of two fresh liond shards, configured like lionroute's defaults.
func runRouterLeg(ctx context.Context, p *plan, tr *tracer, binDir, runDir string) (*driveResult, *layerStats, map[string]estimateDoc, error) {
	shards, err := startShards(binDir, runDir)
	if err != nil {
		return nil, nil, nil, err
	}
	defer func() {
		for _, s := range shards {
			s.stop()
		}
	}()
	doc, err := clusterConfig(shards)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg, err := cluster.ParseConfig(bytes.NewReader(doc))
	if err != nil {
		return nil, nil, nil, err
	}
	ls := &layerStats{shards: map[string]int{}}
	opts := cluster.Options{Registry: obs.NewRegistry(), Codec: wire.Codec{}}
	if tr != nil {
		ls.forward = &forwardLog{base: http.DefaultTransport.(*http.Transport).Clone(), tr: tr}
		opts.Client = &http.Client{Transport: ls.forward}
	}
	rt, err := cluster.New(*cfg, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close(context.Background())
		return nil, nil, nil, err
	}
	srv := &http.Server{Handler: rt.Routes(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	sink := &routerSink{rt: rt, tr: tr, get: oneConnClient(), base: base, ls: ls}
	d := drive(ctx, p, sink, nil, tr)
	var final map[string]estimateDoc
	if tr != nil {
		final, err = finalEstimates(base, p, 10*time.Second)
	}
	sink.get.CloseIdleConnections()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := srv.Shutdown(shutCtx); serr != nil && err == nil {
		err = fmt.Errorf("router http shutdown: %w", serr)
	}
	<-served
	if cerr := rt.Close(shutCtx); cerr != nil && err == nil {
		err = fmt.Errorf("router close: %w", cerr)
	}
	return d, ls, final, err
}
