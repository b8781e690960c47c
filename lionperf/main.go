// Command lionperf is LION's benchmark. It drives the real liond and
// lionroute binaries over loopback HTTP with an open-loop load built from
// the portal tag fleet, runs the paper's calibration pipeline in process,
// checks every output against an offline reference, and prints one JSON
// result line. See README.md in this directory; run it through run.sh.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRepeats is how many times set-up runs in one invocation; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	binDir   string
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: portal or cluster")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 12, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&o.binDir, "bin", "", "directory holding the liond and lionroute binaries")
	flag.Parse()
	o.trace = trace == 1
	if o.workload != "portal" && o.workload != "cluster" {
		fmt.Fprintf(os.Stderr, "lionperf: unknown workload %q (want portal or cluster)\n", o.workload)
		return 2
	}
	if o.seconds < 6 || o.binDir == "" || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "lionperf: need -bin, -seconds >= 6 and -trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runDir, err := filepath.Abs(filepath.Join(".bench_build", "runs",
		fmt.Sprintf("%s-seed%d-trace%d-%d", o.workload, o.seed, trace, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(runDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lionperf:", err)
		return 1
	}
	env := stamp()
	rep, res, err := benchmark(ctx, o, runDir)
	rep.Env = env
	if u, uerr := readUsage(0); uerr == nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("benchmark process peak RSS %.0f MB", u.PeakRSSMB))
	}
	if werr := writeReport(runDir, rep); werr != nil {
		fmt.Fprintln(os.Stderr, "lionperf: report:", werr)
	}
	printReport(os.Stderr, rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lionperf: FAILED:", err)
		if res == nil {
			return 1
		}
		res.Correct = false
		res.Metrics = map[string]metric{}
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lionperf:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// report is the full record of one run, written next to the span dumps.
type report struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    bool              `json:"trace"`
	Env      envStamp          `json:"env"`
	Steps    []stepRow         `json:"steps,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
	// Reported are measured metrics that the result line leaves out.
	Reported map[string]metric  `json:"reported,omitempty"`
	SelfTime map[string]float64 `json:"self_time_s,omitempty"`
	Spans    []string           `json:"span_dumps,omitempty"`
	Notes    []string           `json:"notes,omitempty"`
}

type stepRow struct {
	Name      string  `json:"name"`
	Offered   float64 `json:"offered_sps"`
	Delivered float64 `json:"delivered_sps"`
	Posts     int     `json:"posts"`
	P50       float64 `json:"ingest_p50_ms"`
	P99       float64 `json:"ingest_p99_ms"`
	AgeP99    float64 `json:"estimate_age_p99_ms"`
	LagP99    float64 `json:"lag_p99_ms"`
	Late      float64 `json:"late_ratio"`
	Load      float64 `json:"load"`
	SrvCPU    float64 `json:"server_cpu_cores"`
	GenCPU    float64 `json:"generator_cpu_cores"`
	CPUUS     float64 `json:"server_cpu_us_per_sample"`
	Steal     float64 `json:"steal_share"`
	GenBound  bool    `json:"generator_bound"`
	Pass      bool    `json:"meets_limit"`
}

func stepRows(st *servingStats) []stepRow {
	var rows []stepRow
	for _, s := range st.steps {
		if s.posts == 0 {
			continue
		}
		rows = append(rows, stepRow{
			Name: s.def.name, Offered: s.def.rate, Delivered: s.delivered, Posts: s.posts,
			P50: quantile(s.latMS, 0.5), P99: quantile(s.latMS, 0.99), AgeP99: quantile(s.ageMS, 0.99), LagP99: quantile(s.lagMS, 0.99),
			Late: float64(s.late) / float64(s.posts), Load: s.load, SrvCPU: s.srvUtil, GenCPU: s.genUtil,
			CPUUS: s.cpuUS, Steal: s.steal, GenBound: s.genBound, Pass: s.pass,
		})
	}
	return rows
}

// benchmark runs one workload. It returns the report, the result line,
// and an error when a correctness gate failed or the run could not finish.
func benchmark(ctx context.Context, o options, runDir string) (*report, *result, error) {
	rep := &report{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Metrics: map[string]metric{}}
	nproc := runtime.NumCPU()
	total := time.Duration(o.seconds) * time.Second
	calBudget := total / 6
	serveTotal := total - calBudget

	var (
		p      *plan
		scans  []antennaScan
		tgt    *target
		setups []float64
	)
	defer func() { tgt.stop() }()
	for k := 0; k < setupRepeats; k++ {
		tgt.stop()
		p, scans = nil, nil // let the previous set-up's inputs be collected
		t0 := time.Now()
		var err error
		if p, err = buildPlan(o.seed, serveTotal); err != nil {
			return rep, nil, err
		}
		if scans, err = buildScans(o.seed); err != nil {
			return rep, nil, err
		}
		if tgt, err = startTarget(o.workload, o.binDir, runDir); err != nil {
			return rep, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }

	var calTr *tracer
	if o.trace {
		calTr = newTracer()
	}
	cal, err := runCalibration(ctx, scans, nproc, calBudget, calTr)
	if err != nil {
		return rep, res, err
	}
	res.Attempted += cal.jobs
	res.Failed += cal.failed

	var trA *tracer
	if o.trace {
		trA = newTracer()
	}
	sink := newHTTPSink(tgt.url, trA)
	d := drive(ctx, p, sink, tgt.pids(), trA)
	sink.close()
	if err := ctx.Err(); err != nil {
		return rep, nil, err
	}
	if d.err != nil {
		return rep, res, fmt.Errorf("read server CPU: %w", d.err)
	}
	if err := tgt.checkAlive(); err != nil {
		return rep, res, err
	}
	st := analyze(p, d, nproc)
	rep.Steps = stepRows(st)
	res.Attempted += st.attempted
	res.Failed += st.failed
	final, err := finalEstimates(tgt.url, p, 10*time.Second)
	if err != nil {
		return rep, res, fmt.Errorf("correctness gate: %w", err)
	}
	if err := checkFinal(p, final); err != nil {
		return rep, res, fmt.Errorf("correctness gate: %w", err)
	}
	tgt.stop()

	if !o.trace {
		locErr, err := readLocErrors(p, d)
		if err != nil {
			return rep, res, fmt.Errorf("correctness gate: %w", err)
		}
		put("setup_s", median(setups), "s")
		put("estimate_age_p50_ms", quantile(st.ageMS, 0.5), "ms")
		put("estimate_age_p99_ms", st.ageP99, "ms")
		put("server_cpu_us_per_sample", st.steps[p.cpu].cpuUS, "us")
		put("server_rss_mb", st.ref.rssMB, "MB")
		put("loc_err_p90_cm", quantile(locErr, 0.9), "cm")
		put("center_err_p90_mm", quantile(cal.centerErrMM, 0.9), "mm")
		put("offset_err_p90_mrad", quantile(cal.offsetErrMR, 0.9), "mrad")
		res.Metrics = rep.Metrics
		// Measured and reported, but not in the result line: on a small
		// virtual machine these move with the CPU time the hypervisor
		// steals from it, by up to several times within minutes (see
		// steal_share in the step table), which no run length evens out.
		rep.Reported = map[string]metric{
			"ingest_p50_ms": {quantile(st.ref.latMS, 0.5), "ms"},
			"ingest_p99_ms": {st.ingestP99, "ms"},
			"query_p50_ms":  {quantile(st.queryMS, 0.5), "ms"},
			"query_p99_ms":  {st.queryP99, "ms"},
			"capacity_sps":  {st.capacity, "1/s"},
			"calib_per_s":   {cal.perS, "1/s"},
			"calib_p50_ms":  {median(cal.latMS), "ms"},
			"error_ratio":   {float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"},
		}
		return rep, res, nil
	}

	// Traced run: client spans came from leg A above; the layers come from
	// an in-process replay of the same batches (leg B), whose final
	// estimates must match the servers'; leg C replays the warm-up and the
	// reference step untraced, for the tracing overhead.
	trB := newTracer()
	var (
		dB, dC   *driveResult
		ls       *layerStats
		replayed map[string]estimateDoc
	)
	short := p.prefix(p.ref + 1)
	if o.workload == "portal" {
		dB, ls, replayed, err = runEngineLeg(ctx, p, trB)
		if err == nil {
			dC, _, _, err = runEngineLeg(ctx, short, nil)
		}
	} else {
		dB, ls, replayed, err = runRouterLeg(ctx, p, trB, o.binDir, runDir)
		if err == nil {
			dC, _, _, err = runRouterLeg(ctx, short, nil, o.binDir, runDir)
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return rep, res, err
	}
	if err := checkFidelity(final, replayed); err != nil {
		return rep, res, err
	}
	stB := analyze(p, dB, nproc)
	stC := analyze(short, dC, nproc)
	for _, s := range []*servingStats{stB, stC} {
		res.Attempted += s.attempted
		res.Failed += s.failed
	}
	layerMetrics(put, st, stB, stC, ls, cal)
	rep.SelfTime = map[string]float64{}
	for leg, tr := range map[string]*tracer{"calibrate": calTr, "http": trA, "replay": trB} {
		for name, v := range tr.selfTimes() {
			rep.SelfTime[leg+"/"+name] = v
		}
		path := filepath.Join(runDir, "spans-"+leg+".ndjson")
		if err := tr.dump(path); err != nil {
			return rep, res, fmt.Errorf("span dump: %w", err)
		}
		rep.Spans = append(rep.Spans, path)
	}
	sort.Strings(rep.Spans)
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d spans recorded", calTr.len()+trA.len()+trB.len()))
	res.Metrics = rep.Metrics
	return rep, res, nil
}

// prefix returns the plan cut after its first n steps.
func (p *plan) prefix(n int) *plan {
	end := p.steps[n-1].start + p.steps[n-1].dur
	q := &plan{steps: p.steps[:n], ref: p.ref, tags: p.tags}
	for _, b := range p.batches {
		if b.step < n {
			q.batches = append(q.batches, b)
		}
	}
	for _, r := range p.reads {
		if r.due < end {
			q.reads = append(q.reads, r)
		}
	}
	return q
}

// layerMetrics fills the per-layer metrics of a traced run. stA is the
// traced HTTP leg, whose generator and transport numbers are taken at the
// reference step like the ingest metrics they feed; stB is the traced
// replay and stC the untraced replay. A layer that the workload's path
// does not cross reads 0.
func layerMetrics(put func(string, float64, string), stA, stB, stC *servingStats, ls *layerStats, cal *calibStats) {
	perSample := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n)
	}
	ref := stA.ref
	put("load.send_lag_p50_ms", quantile(ref.lagMS, 0.5), "ms")
	put("load.send_lag_p99_ms", quantile(ref.lagMS, 0.99), "ms")
	put("load.late_ratio", float64(ref.late)/float64(max(ref.posts, 1)), "ratio")
	put("load.cpu_s", ref.genCPU, "s")
	put("http.post_p50_ms", quantile(ref.postMS, 0.5), "ms")
	put("http.post_p99_ms", quantile(ref.postMS, 0.99), "ms")
	put("wire.encode_ns_per_sample", perSample(ls.encNS, ls.samples), "ns")
	put("wire.decode_ns_per_sample", perSample(ls.decNS, ls.samples), "ns")
	put("wire.bytes_per_sample", float64(ls.wireBytes)/float64(max(ls.samples, 1)), "B")
	put("stream.ingest_us_p50", 0, "us")
	put("stream.ingest_us_p99", 0, "us")
	put("cluster.ingest_us_p99", 0, "us")
	if ls.forward == nil {
		put("stream.ingest_us_p50", quantile(ls.ingestUS, 0.5), "us")
		put("stream.ingest_us_p99", quantile(ls.ingestUS, 0.99), "us")
	} else {
		put("cluster.ingest_us_p99", quantile(ls.ingestUS, 0.99), "us")
	}
	put("stream.latest_us_p99", quantile(ls.latestUS, 0.99), "us")
	put("stream.snapshots", float64(ls.snapshots), "count")
	coalescedRatio := 0.0
	if n := ls.snapshots + ls.coalesced; n > 0 {
		coalescedRatio = float64(ls.coalesced) / float64(n)
	}
	put("stream.coalesced_ratio", coalescedRatio, "ratio")
	put("stream.publish_us_p99", quantile(ls.publishUS, 0.99), "us")
	put("stream.freshness_ms_p50", quantile(ls.freshMS, 0.5), "ms")
	put("stream.freshness_ms_p99", quantile(ls.freshMS, 0.99), "ms")
	put("batch.queue_wait_ms_p50", quantile(ls.queueWaitMS, 0.5), "ms")
	put("batch.queue_wait_ms_p99", quantile(ls.queueWaitMS, 0.99), "ms")
	busy, solveUS, iters := 0.0, []float64(nil), []float64(nil)
	if sl := ls.solves; sl != nil && ls.wall > 0 {
		busy = sl.busy.Seconds() / (float64(runtime.GOMAXPROCS(0)) * ls.wall.Seconds())
		solveUS, iters = sl.durUS, sl.iters
	}
	put("batch.busy_share", busy, "ratio")
	put("core.solve_us_p50", quantile(solveUS, 0.5), "us")
	put("core.solve_us_p99", quantile(solveUS, 0.99), "us")
	put("core.irls_iters_mean", mean(iters), "iters")
	put("dsp.preprocess_us_p50", quantile(ls.preprocessUS, 0.5), "us")
	put("health.observe_sample_ns", perSample(ls.healthSampleNS, ls.samples), "ns")
	put("health.observe_solve_ns", perSample(ls.healthSolveNS, ls.healthSolves), "ns")
	put("obs.observe_ns", perSample(ls.obsNS, ls.samples), "ns")

	fwdP50, fwdP99, fwdMean, retries := 0.0, 0.0, 0.0, 0
	if f := ls.forward; f != nil {
		fwdP50, fwdP99 = quantile(f.durMS, 0.5), quantile(f.durMS, 0.99)
		fwdMean, retries = mean(f.samples), f.failed
	}
	put("cluster.forward_ms_p50", fwdP50, "ms")
	put("cluster.forward_ms_p99", fwdP99, "ms")
	put("cluster.forward_samples_mean", fwdMean, "count")
	put("cluster.retries", float64(retries), "count")
	skew := 0.0
	if len(ls.shards) > 0 {
		var top, sum float64
		for _, n := range ls.shards {
			top = max(top, float64(n))
			sum += float64(n)
		}
		skew = top / (sum / float64(len(ls.shards)))
	}
	put("cluster.shard_skew", skew, "ratio")
	put("cluster.queue_peak", float64(ls.qPeak), "count")
	put("cluster.rejected", float64(ls.rejects), "count")

	put("core.threeline_ms_p50", median(cal.locateMS), "ms")
	put("core.phase_offset_us_p50", median(cal.phaseUS), "us")
	put("calib.preprocess_ms_p50", median(cal.prepMS), "ms")
	put("calib.queue_wait_ms_p50", median(cal.waitMS), "ms")

	put("trace.overhead_ingest_p99_ms", stB.ingestP99-stC.ingestP99, "ms")
	put("trace.overhead_age_p99_ms", stB.ageP99-stC.ageP99, "ms")
}
