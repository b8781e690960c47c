// Command liond is the real-time streaming localization daemon: it ingests
// timestamped phase reports over HTTP/JSON, maintains per-tag sliding
// windows, solves them continuously with the LION linear localizer, and
// serves the latest estimate per tag.
//
// Example session (see README.md for the full quickstart):
//
//	liond -addr :8077 &
//	lionsim -scenario linear -format ndjson |
//	    curl -s --data-binary @- http://localhost:8077/v1/samples
//	curl -s http://localhost:8077/v1/tags/T1/estimate
//
// Endpoints:
//
//	POST /v1/samples               NDJSON lines or {"samples":[...]}
//	GET  /v1/tags                  known tag ids
//	GET  /v1/tags/{id}/estimate    latest estimate for one tag
//	GET  /v1/alerts                health alerts + per-antenna drift status
//	GET  /v1/slo                   latency/freshness quantiles + alert latency
//	GET  /v1/recal/history         closed-loop recalibration audit log (-recal)
//	POST /v1/recal/trigger         run one recalibration now (-recal)
//	GET  /healthz                  liveness (always 200 while the process runs)
//	GET  /readyz                   readiness (503 while draining or a critical alert fires)
//	GET  /metrics                  Prometheus exposition (obs registry)
//	GET  /debug/flight/{id}        flight-recorder traces for one tag, NDJSON
//	GET  /debug/pipespans          pipeline spans, NDJSON (?trace= filters)
//	GET  /debug/dashboard          dependency-free HTML health dashboard
//	GET  /debug/pprof/...          net/http/pprof profiles
//
// On SIGINT/SIGTERM the daemon stops accepting requests, gives every dirty
// window a final solve, waits for in-flight solves to drain, and exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/health"
	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/recal"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/stream"
	"github.com/rfid-lion/lion/internal/wire"
)

// logx is the daemon's structured logger; one JSON object per line on stderr.
var logx = obs.NewLogger(os.Stderr)

// maxIngestBody bounds one POST /v1/samples body (64 MiB).
const maxIngestBody = 64 << 20

// spanLogCap bounds the in-memory pipeline span ring served at
// /debug/pipespans; old spans are overwritten, never spilled.
const spanLogCap = 4096

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "liond:", err)
		os.Exit(1)
	}
}

type config struct {
	addr    string
	drain   time.Duration
	cfg     stream.Config
	monitor bool
	health  health.Config

	// traceSample samples 1 in N locally-originated ingest batches for
	// end-to-end tracing (0 = off). Wire frames carrying a trace extension
	// from lionroute are always honoured regardless of this knob.
	traceSample int

	// Closed-loop recalibration (-recal): solver geometry the controller
	// re-solves with, plus its acceptance tuning.
	recal        bool
	recalMargin  float64
	recalMin     int
	lambda       float64
	intervals    []float64
	positiveSide bool
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("liond", flag.ContinueOnError)
	var (
		addr   = fs.String("addr", ":8077", "listen address")
		lambda = fs.Float64("lambda", 0, "carrier wavelength, m (0 = paper's 920.625 MHz band)")
		solver = fs.String("solver", "line",
			"window solver: line (2-D lower-dimension), 2d, 3d")
		incremental = fs.Bool("incremental", false,
			"line solver only: per-tag incremental sliding-window sessions "+
				"(zero-alloc steady-state re-solves; implies -smooth 0)")
		intervals = fs.String("intervals", "0.2",
			"comma-separated pairing intervals for the line solver, m")
		stride = fs.Int("stride", 0,
			"pairing stride for the 2d/3d solvers (0 = quarter window)")
		side = fs.Bool("positive-side", true,
			"line solver: target on the +90° side of the scan direction")
		window = fs.Int("window", 256, "sliding window capacity, samples")
		span   = fs.Duration("span", 0, "sliding window time-span (0 = unbounded)")
		minS   = fs.Int("min", 8, "minimum window length before solving")
		every  = fs.Int("every", 16, "solve every N accepted samples")
		smooth = fs.Int("smooth", 9, "phase smoothing window (odd, 0 = off)")
		reject = fs.Bool("reject-newest", false,
			"refuse samples at a full window instead of evicting the oldest")
		workers = fs.Int("workers", 0, "solve pool size (0 = GOMAXPROCS)")
		timeout = fs.Duration("solve-timeout", 0, "per-window solve timeout (0 = none)")
		drain   = fs.Duration("drain", 10*time.Second, "shutdown drain timeout")
		monitor = fs.Bool("monitor", true,
			"run the solve-health monitor (alerts, flight recorder, /v1/alerts)")
		antenna = fs.String("antenna", "A1",
			"antenna id this daemon ingests for (alert scope and drift gauge label)")
		calCenter = fs.String("cal-center", "",
			"calibrated antenna phase center as x,y,z metres (enables drift detection)")
		calOffset = fs.Float64("cal-offset", 0,
			"calibrated phase offset Δθ = θ_T + θ_R, radians")
		driftFrac = fs.Float64("drift-frac", 0.02,
			"drift alert threshold as a fraction of the wavelength")
		driftWindow = fs.Int("drift-window", 256,
			"sliding sample window of the drift re-estimate")
		holdDown = fs.Duration("hold-down", 2*time.Second,
			"drift must persist this long (stream time) before the alert fires")
		recalOn = fs.Bool("recal", false,
			"closed-loop recalibration: when the drift alert fires, re-solve the "+
				"antenna calibration from live windows and hot-swap the profile "+
				"(requires -cal-center and -monitor)")
		recalMargin = fs.Float64("recal-margin", 0.05,
			"accept a recalibration candidate only if it improves the held-out "+
				"residual by this fraction")
		recalMin = fs.Int("recal-min", 64,
			"minimum live-window samples a recalibration re-solve needs")
		traceSample = fs.Int("trace-sample", 0,
			"pipeline tracing: sample 1 in N local ingest batches (0 = off; "+
				"traced wire frames from lionroute are always honoured)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	lam := *lambda
	if lam == 0 {
		lam = rf.DefaultBand().Wavelength()
	}
	var ivs []float64
	for _, part := range strings.Split(*intervals, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("interval %q: %w", part, err)
		}
		ivs = append(ivs, v)
	}
	var (
		sv      stream.Solver
		factory func() stream.SessionSolver
	)
	smoothW := *smooth
	if *incremental {
		if *solver != "line" {
			return nil, fmt.Errorf("-incremental requires -solver line, got %q", *solver)
		}
		if len(ivs) == 0 {
			return nil, errors.New("line solver needs at least one interval")
		}
		smoothSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "smooth" {
				smoothSet = true
			}
		})
		if smoothSet && *smooth > 1 {
			return nil, errors.New("-incremental is incompatible with -smooth: " +
				"centred smoothing rewrites the window overlap and defeats slide detection")
		}
		smoothW = 0
		var err error
		factory, err = stream.IncrementalLine2DFactory(lam, ivs, *side, core.DefaultSolveOptions())
		if err != nil {
			return nil, err
		}
	} else {
		var err error
		sv, err = buildSolver(*solver, lam, ivs, *stride, *side)
		if err != nil {
			return nil, err
		}
	}
	policy := stream.EvictOldest
	if *reject {
		policy = stream.RejectNewest
	}
	hcfg := health.Config{Rules: health.DefaultRules()}
	for i := range hcfg.Rules {
		if hcfg.Rules[i].Signal == health.SignalDrift {
			hcfg.Rules[i].Threshold = *driftFrac
			hcfg.Rules[i].HoldDown = *holdDown
		}
	}
	if *calCenter != "" {
		center, err := parseVec3(*calCenter)
		if err != nil {
			return nil, fmt.Errorf("cal-center: %w", err)
		}
		hcfg.Calibrations = []health.Calibration{{
			Antenna: *antenna,
			Center:  center,
			Offset:  *calOffset,
			Lambda:  lam,
			Window:  *driftWindow,
		}}
	}
	hcfg.Logger = logx
	if *recalOn {
		if len(hcfg.Calibrations) == 0 {
			return nil, errors.New("-recal needs -cal-center (a calibration to recalibrate)")
		}
		if !*monitor {
			return nil, errors.New("-recal needs the monitor (-monitor=true) for drift alerts")
		}
	}
	if *traceSample < 0 {
		return nil, fmt.Errorf("-trace-sample must be >= 0, got %d", *traceSample)
	}
	return &config{
		addr:    *addr,
		drain:   *drain,
		monitor: *monitor,
		health:  hcfg,

		traceSample: *traceSample,

		recal:        *recalOn,
		recalMargin:  *recalMargin,
		recalMin:     *recalMin,
		lambda:       lam,
		intervals:    ivs,
		positiveSide: *side,
		cfg: stream.Config{
			WindowSize:    *window,
			WindowSpan:    *span,
			MinSamples:    *minS,
			SolveEvery:    *every,
			Smooth:        smoothW,
			Policy:        policy,
			Workers:       *workers,
			JobTimeout:    *timeout,
			Solver:        sv,
			SolverFactory: factory,
			Antenna:       *antenna,
		},
	}, nil
}

// parseVec3 parses "x,y,z" into a vector.
func parseVec3(s string) (geom.Vec3, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return geom.Vec3{}, fmt.Errorf("want x,y,z, got %q", s)
	}
	var out [3]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geom.Vec3{}, err
		}
		out[i] = v
	}
	return geom.V3(out[0], out[1], out[2]), nil
}

func buildSolver(name string, lambda float64, intervals []float64, stride int, positiveSide bool) (stream.Solver, error) {
	opts := core.DefaultSolveOptions()
	switch name {
	case "line":
		if len(intervals) == 0 {
			return nil, errors.New("line solver needs at least one interval")
		}
		return stream.Line2DSolver(lambda, intervals, positiveSide, opts), nil
	case "2d":
		return stream.Free2DSolver(lambda, stride, opts), nil
	case "3d":
		return stream.Free3DSolver(lambda, stride, opts), nil
	default:
		return nil, fmt.Errorf("unknown solver %q (want line, 2d or 3d)", name)
	}
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	eng, mon, ctrl, err := buildPipeline(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logx.Info("listening",
		"addr", ln.Addr().String(),
		"window", cfg.cfg.WindowSize,
		"every", cfg.cfg.SolveEvery,
		"workers", cfg.cfg.Workers,
		"monitor", mon != nil,
		"calibrations", len(cfg.health.Calibrations),
		"recal", ctrl != nil)
	return serve(ctx, ln, eng, mon, ctrl, cfg)
}

// buildPipeline assembles the shared registry, the health monitor (unless
// disabled), the stream engine wired to both, and (with -recal) the
// closed-loop recalibration controller subscribed to the monitor's alert
// transitions. A configured calibration also becomes the engine's initial
// antenna profile, so solves run on offset-corrected phases from the start.
func buildPipeline(cfg *config) (*stream.Engine, *health.Monitor, *recal.Controller, error) {
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	var mon *health.Monitor
	if cfg.monitor {
		cfg.health.Registry = reg
		var err error
		if mon, err = health.New(cfg.health); err != nil {
			return nil, nil, nil, err
		}
	}
	if len(cfg.health.Calibrations) > 0 {
		cal := cfg.health.Calibrations[0]
		cfg.cfg.Profile = &stream.Profile{
			Antenna: cal.Antenna, Center: cal.Center, Offset: cal.Offset, Lambda: cal.Lambda,
		}
	}
	cfg.cfg.Registry = reg
	cfg.cfg.Monitor = mon
	// The span log is always wired in: recording is gated per batch by the
	// trace context, so an untraced steady state pays nothing for it, and a
	// router that negotiated the wire trace extension can light it up without
	// any local flag.
	cfg.cfg.Spans = obs.NewSpanLog("liond", spanLogCap)
	eng, err := stream.New(cfg.cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	var ctrl *recal.Controller
	if cfg.recal {
		ctrl, err = recal.New(recal.Config{
			Engine:       eng,
			Monitor:      mon,
			Antenna:      cfg.cfg.Antenna,
			Lambda:       cfg.lambda,
			Margin:       cfg.recalMargin,
			MinSamples:   cfg.recalMin,
			Intervals:    cfg.intervals,
			PositiveSide: cfg.positiveSide,
			Registry:     reg,
			Logger:       logx,
		})
		if err != nil {
			eng.Close(context.Background())
			return nil, nil, nil, err
		}
		mon.SetOnTransition(ctrl.OnTransition)
	}
	return eng, mon, ctrl, nil
}

// serve runs the HTTP server on ln until ctx is cancelled, then shuts down
// gracefully: readiness flips to draining first (load balancers stop routing
// here), the listener closes so no new samples arrive, and the engine drains
// every in-flight and dirty window before serve returns.
func serve(ctx context.Context, ln net.Listener, eng *stream.Engine, mon *health.Monitor, ctrl *recal.Controller, cfg *config) error {
	s := newServer(eng, mon, ctrl, cfg)
	drain := cfg.drain
	srv := &http.Server{
		Handler:           s.routes(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		ctrl.Close()
		eng.Close(context.Background())
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	// Stop the recal worker before draining so no profile swap lands in the
	// middle of the final solves.
	ctrl.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logx.Warn("http shutdown", "err", err)
	}
	if err := eng.Close(shutCtx); err != nil && !errors.Is(err, stream.ErrClosed) {
		return fmt.Errorf("drain: %w", err)
	}
	m := eng.Metrics()
	logx.Info("drained",
		"ingested", m.Ingested,
		"solves", m.Solves,
		"solve_errors", m.SolveErrors,
		"dropped", m.DroppedOverflow+m.DroppedAge)
	return nil
}

type server struct {
	eng      *stream.Engine
	mon      *health.Monitor   // nil when -monitor=false
	ctrl     *recal.Controller // nil without -recal
	codecs   []dataset.Codec   // ingest codecs: NDJSON (the fallback) and wire
	start    time.Time
	draining atomic.Bool

	// Pipeline tracing: the engine's span ring and the local 1-in-N sampler
	// (nil without -trace-sample).
	spans        *obs.SpanLog
	sampler      *obs.Sampler
	ingestDecode *obs.Histogram
	ingestReq    *obs.Histogram
}

func newServer(eng *stream.Engine, mon *health.Monitor, ctrl *recal.Controller, cfg *config) *server {
	s := &server{
		eng: eng, mon: mon, ctrl: ctrl, start: time.Now(),
		spans:  cfg.cfg.Spans,
		codecs: []dataset.Codec{dataset.NDJSON{}, wire.Codec{}},
	}
	if cfg.traceSample > 0 {
		s.sampler = obs.NewSampler(cfg.traceSample, uint64(s.start.UnixNano()))
	}
	s.ingestDecode = eng.Registry().Histogram("lion_ingest_decode_seconds",
		"Time decoding one POST /v1/samples body, wire or NDJSON.", obs.DefBuckets)
	s.ingestReq = eng.Registry().Histogram("lion_http_ingest_seconds",
		"Wall time of one POST /v1/samples request, receive to response.", obs.DefBuckets)
	eng.Registry().GaugeFunc("lion_uptime_seconds", "Seconds since the daemon started.", func() float64 {
		return time.Since(s.start).Seconds()
	})
	return s
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/samples", s.handleIngest)
	mux.HandleFunc("GET /v1/tags", s.handleTags)
	mux.HandleFunc("GET /v1/tags/{id}/estimate", s.handleEstimate)
	mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	mux.HandleFunc("GET /v1/slo", s.handleSLO)
	mux.HandleFunc("GET /v1/recal/history", s.handleRecalHistory)
	mux.HandleFunc("POST /v1/recal/trigger", s.handleRecalTrigger)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.Handle("GET /metrics", s.eng.Registry().Handler())
	mux.HandleFunc("GET /debug/flight/{id}", s.handleFlight)
	mux.HandleFunc("GET /debug/pipespans", s.handlePipeSpans)
	mux.HandleFunc("GET /debug/dashboard", s.handleDashboard)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	recv := time.Now()
	// The full request wall time — the server-side twin of a load
	// generator's client-observed ingest latency (error paths included,
	// since the client's clock cannot tell them apart).
	defer func() { s.ingestReq.Observe(time.Since(recv).Seconds()) }()
	body := http.MaxBytesReader(w, r.Body, maxIngestBody)
	codec := dataset.SelectCodec(s.codecs, r.Header.Get("Content-Type"))
	var (
		samples []dataset.TaggedSample
		ext     *wire.Ext
		err     error
	)
	if _, isWire := codec.(wire.Codec); isWire {
		samples, ext, err = wire.DecodeIngestExt(body)
	} else {
		samples, err = codec.Decode(body)
	}
	decodeTook := time.Since(recv)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Trace context and staleness origin: a wire trace extension from the
	// router wins (its receive clock started this batch's staleness budget);
	// otherwise the local sampler decides and the origin is our own accept.
	var tc obs.TraceContext
	origin := recv
	if ext != nil {
		tc = obs.TraceContext{ID: ext.TraceID, Sampled: true}
		origin = time.Unix(0, ext.RouterRecvUnixNano)
	} else if s.sampler != nil {
		tc = s.sampler.Next()
	}
	s.ingestDecode.ObserveExemplar(decodeTook.Seconds(), tc)
	s.spans.Record(tc, "ingest_decode", "", recv, decodeTook)
	// The whole batch enters the engine under one lock acquisition; bad
	// samples (RejectNewest overflow, non-finite floats) are counted and
	// skipped so one cannot poison the rest of the batch.
	batch := make([]stream.Tagged, len(samples))
	for i, ts := range samples {
		batch[i] = stream.Tagged{Tag: ts.Tag, Sample: stream.FromSim(ts.Sample())}
	}
	enq := time.Now()
	accepted, dropped, err := s.eng.IngestTaggedTraced(batch, tc, origin)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	s.spans.Record(tc, "engine_enqueue", "", enq, time.Since(enq))
	resp := map[string]any{"accepted": accepted, "dropped": dropped}
	if tc.Sampled {
		resp["trace_id"] = obs.TraceIDString(tc.ID)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleTags(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"tags": s.eng.Tags()})
}

// estimateJSON is the wire form of one estimate. Unknown coordinates (NaN)
// marshal as null.
type estimateJSON struct {
	Tag       string   `json:"tag"`
	Seq       uint64   `json:"seq"`
	Window    int      `json:"window"`
	FromS     float64  `json:"from_s"`
	ToS       float64  `json:"to_s"`
	X         *float64 `json:"x_m"`
	Y         *float64 `json:"y_m"`
	Z         *float64 `json:"z_m"`
	RefDist   *float64 `json:"ref_distance_m,omitempty"`
	RMSResid  *float64 `json:"rms_residual,omitempty"`
	LatencyMS float64  `json:"solve_latency_ms"`
	// ProfileVersion names the antenna profile that corrected this window
	// (0 = no profile), so operators can tell pre- from post-swap estimates.
	ProfileVersion uint64 `json:"profile_version,omitempty"`
	Error          string `json:"error,omitempty"`
}

func fnum(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	tag := r.PathValue("id")
	est, ok := s.eng.Latest(tag)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no estimate for tag %q", tag))
		return
	}
	out := estimateJSON{
		Tag:            est.Tag,
		Seq:            est.Seq,
		Window:         est.Window,
		FromS:          est.From.Seconds(),
		ToS:            est.To.Seconds(),
		LatencyMS:      float64(est.Latency) / float64(time.Millisecond),
		ProfileVersion: est.ProfileVersion,
	}
	if est.Err != nil {
		out.Error = est.Err.Error()
	}
	if sol := est.Solution; sol != nil {
		out.X = fnum(sol.Position.X)
		out.Y = fnum(sol.Position.Y)
		out.Z = fnum(sol.Position.Z)
		out.RefDist = fnum(sol.RefDistance)
		out.RMSResid = fnum(sol.RMSResidual)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}
