package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrentIncrement hammers one counter, one vec child, one
// gauge, and one histogram from many goroutines; run under -race this is the
// registry's data-race proof, and the final values prove no increment is
// lost.
func TestRegistryConcurrentIncrement(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("lion_test_ops_total", "ops")
	vec := r.CounterVec("lion_test_dropped_total", "drops", "reason")
	overflow := vec.With("overflow")
	g := r.Gauge("lion_test_depth", "depth")
	h := r.Histogram("lion_test_latency_seconds", "latency", nil)

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				overflow.Inc()
				g.Add(1)
				h.Observe(0.001)
				var sb strings.Builder
				if i%100 == 0 {
					r.WritePrometheus(&sb) // scrape while writing
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := overflow.Value(); got != workers*per {
		t.Errorf("vec child = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Errorf("gauge = %g, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestRegistryExpositionGolden pins the exact Prometheus text format: HELP
// and TYPE headers, sorted metric order, label quoting, cumulative histogram
// buckets with +Inf, and _sum/_count.
func TestRegistryExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("lion_test_ingested_total", "samples accepted")
	c.Add(42)
	vec := r.CounterVec("lion_test_dropped_total", "samples dropped", "reason")
	vec.With("overflow").Add(3)
	vec.With("age").Inc()
	g := r.Gauge("lion_test_tags", "known tags")
	g.Set(2)
	r.GaugeFunc("lion_test_uptime_seconds", "uptime", func() float64 { return 1.5 })
	h := r.Histogram("lion_test_latency_seconds", "solve latency", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(7)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := `# HELP lion_test_dropped_total samples dropped
# TYPE lion_test_dropped_total counter
lion_test_dropped_total{reason="age"} 1
lion_test_dropped_total{reason="overflow"} 3
# HELP lion_test_ingested_total samples accepted
# TYPE lion_test_ingested_total counter
lion_test_ingested_total 42
# HELP lion_test_latency_seconds solve latency
# TYPE lion_test_latency_seconds histogram
lion_test_latency_seconds_bucket{le="0.01"} 1
lion_test_latency_seconds_bucket{le="0.1"} 3
lion_test_latency_seconds_bucket{le="1"} 3
lion_test_latency_seconds_bucket{le="+Inf"} 4
lion_test_latency_seconds_sum 7.105
lion_test_latency_seconds_count 4
# HELP lion_test_tags known tags
# TYPE lion_test_tags gauge
lion_test_tags 2
# HELP lion_test_uptime_seconds uptime
# TYPE lion_test_uptime_seconds gauge
lion_test_uptime_seconds 1.5
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramExemplarExpositionGolden pins the exemplar-annotated text
// format: a bucket that received a sampled observation carries an
// OpenMetrics-style `# {trace_id="..."} value` suffix on its own line, later
// sampled observations into the same bucket replace the exemplar, and the
// +Inf bucket can carry one too.
func TestHistogramExemplarExpositionGolden(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lion_test_staleness_seconds", "estimate staleness", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.ObserveExemplar(0.05, TraceContext{ID: 0xabc, Sampled: true})
	h.ObserveExemplar(0.07, TraceContext{ID: 0xdef, Sampled: true}) // replaces 0xabc
	h.ObserveExemplar(7, TraceContext{ID: 0x123, Sampled: true})

	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := `# HELP lion_test_staleness_seconds estimate staleness
# TYPE lion_test_staleness_seconds histogram
lion_test_staleness_seconds_bucket{le="0.01"} 1
lion_test_staleness_seconds_bucket{le="0.1"} 3 # {trace_id="0000000000000def"} 0.07
lion_test_staleness_seconds_bucket{le="1"} 3
lion_test_staleness_seconds_bucket{le="+Inf"} 4 # {trace_id="0000000000000123"} 7
lion_test_staleness_seconds_sum 7.125
lion_test_staleness_seconds_count 4
`
	if got := sb.String(); got != want {
		t.Errorf("exemplar exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramWithoutExemplarsUnchanged proves that unsampled contexts leave
// the exposition byte-identical to plain Observe — the with/without pair the
// scrape pipeline contract needs.
func TestHistogramWithoutExemplarsUnchanged(t *testing.T) {
	plain := NewRegistry()
	hp := plain.Histogram("lion_test_staleness_seconds", "estimate staleness", []float64{0.01, 0.1, 1})
	hp.Observe(0.05)
	hp.Observe(7)

	unsampled := NewRegistry()
	hu := unsampled.Histogram("lion_test_staleness_seconds", "estimate staleness", []float64{0.01, 0.1, 1})
	hu.ObserveExemplar(0.05, TraceContext{})
	hu.ObserveExemplar(7, TraceContext{ID: 99, Sampled: false})

	var a, b strings.Builder
	plain.WritePrometheus(&a)
	unsampled.WritePrometheus(&b)
	if a.String() != b.String() {
		t.Errorf("unsampled ObserveExemplar changed the exposition:\n--- plain ---\n%s--- unsampled ---\n%s",
			a.String(), b.String())
	}
	if strings.Contains(b.String(), "trace_id") {
		t.Error("unsampled exposition contains an exemplar annotation")
	}

	// And the unsampled observe path allocates nothing.
	allocs := testing.AllocsPerRun(1000, func() {
		hu.ObserveExemplar(0.05, TraceContext{})
	})
	if allocs != 0 {
		t.Errorf("unsampled ObserveExemplar allocated %.1f times per run, want 0", allocs)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("lion_test_total", "")
	b := r.Counter("lion_test_total", "")
	if a != b {
		t.Error("re-registering the same counter returned a different instance")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("lion_test_total", "")
}

func TestRegistryRejectsBadName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name did not panic")
		}
	}()
	NewRegistry().Counter("lion test with spaces", "")
}

// fakeClock replaces h's clock with a manual one starting at the window's
// current interval; advance it through the returned pointer.
func fakeClock(h *Histogram) *time.Time {
	now := h.rotated
	h.now = func() time.Time { return now }
	return &now
}

// TestHistogramQuantiles: Quantile takes a fraction in [0, 1] and reads the
// window's stats.Hist, within its 1/32 relative resolution.
func TestHistogramQuantiles(t *testing.T) {
	h := NewRegistry().Histogram("lion_test_latency_seconds", "", nil)
	if _, ok := h.Quantile(0.5); ok {
		t.Error("empty histogram reported a quantile")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 0.050}, {0.95, 0.095}, {0.99, 0.099}, {1, 0.100}} {
		got, ok := h.Quantile(c.q)
		if !ok || got < c.want || got > c.want*(1+1.0/32) {
			t.Errorf("q=%v: %g ok=%v, want %g within 1/32", c.q, got, ok, c.want)
		}
	}
	if _, ok := h.Quantile(50); ok {
		t.Error("a percentile-style argument was accepted")
	}
	if q := QuantilesOf(h.Window()); q.Count != 100 || q.Hist.Mean() != h.Sum()/100 {
		t.Errorf("window summary %+v, want count 100 and the lifetime mean", q)
	}
}

// TestHistogramWindowExpires: observations older than two rotation intervals
// drop out of Quantile and of the /v1/slo count, while the lifetime Count
// and Sum behind the Prometheus exposition keep them.
func TestHistogramWindowExpires(t *testing.T) {
	h := NewRegistry().Histogram("lion_test_latency_seconds", "", nil)
	clk := fakeClock(h)
	h.Observe(0.5)
	*clk = clk.Add(quantileInterval)
	h.Observe(0.001)
	if q := QuantilesOf(h.Window()); q.Count != 2 || q.P99 < 0.5 {
		t.Fatalf("one interval later: %+v, want both observations", q)
	}
	*clk = clk.Add(quantileInterval)
	if q := QuantilesOf(h.Window()); q.Count != 1 || q.P99 > 0.0011 {
		t.Fatalf("two intervals later: %+v, want only the 1 ms observation", q)
	}
	*clk = clk.Add(3 * quantileInterval)
	if _, ok := h.Quantile(0.5); ok {
		t.Error("an idle window still reports a quantile")
	}
	if q := QuantilesOf(h.Window()); q.Count != 0 || q.P50 != 0 || q.P99 != 0 || q.Hist.Count() != 0 {
		t.Errorf("idle window %+v, want explicit zeros", q)
	}
	if h.Count() != 2 || h.Sum() != 0.501 {
		t.Errorf("lifetime count %d sum %g, want 2 and 0.501", h.Count(), h.Sum())
	}
}

// TestHistogramWindowTailIsOrderFree: 200 slow observations among 10 000
// fast ones inside one interval set the p99 whatever order they arrive in —
// a bounded raw window would have evicted them when the fast ones came last.
func TestHistogramWindowTailIsOrderFree(t *testing.T) {
	const fast, slow, nFast, nSlow = 0.001, 0.2, 10000, 200
	orders := map[string]func(i int) bool{ // is observation i slow?
		"slow first":  func(i int) bool { return i < nSlow },
		"slow last":   func(i int) bool { return i >= nFast },
		"interleaved": func(i int) bool { return i%((nFast+nSlow)/nSlow) == 0 },
	}
	for name, isSlow := range orders {
		h := NewRegistry().Histogram("lion_test_latency_seconds", "", nil)
		fakeClock(h)
		for i := 0; i < nFast+nSlow; i++ {
			v := fast
			if isSlow(i) {
				v = slow
			}
			h.Observe(v)
		}
		if p99, _ := h.Quantile(0.99); p99 < slow {
			t.Errorf("%s: p99 = %g, want the slow %g", name, p99, slow)
		}
		if p50, _ := h.Quantile(0.5); p50 > fast*1.04 {
			t.Errorf("%s: p50 = %g, want the fast %g", name, p50, fast)
		}
	}
}

// TestHistogramObserveZeroAllocsAcrossRotation: rotating the window is part
// of the observe path and must not allocate either.
func TestHistogramObserveZeroAllocsAcrossRotation(t *testing.T) {
	h := NewRegistry().Histogram("lion_test_latency_seconds", "", nil)
	clk := fakeClock(h)
	tc := TraceContext{ID: 7, Sampled: true}
	h.ObserveExemplar(0.01, tc) // allocates the exemplar slice once
	allocs := testing.AllocsPerRun(200, func() {
		*clk = clk.Add(quantileInterval / 3)
		h.Observe(0.01)
		h.ObserveExemplar(0.02, tc)
		h.ObserveExemplar(0.03, TraceContext{})
	})
	if allocs != 0 {
		t.Errorf("observe across rotations allocated %.1f times per run, want 0", allocs)
	}
	if q := QuantilesOf(h.Window()); q.Count == 0 || q.Count > 3*7 {
		t.Errorf("window count %d after many rotations, want at most two intervals' worth", q.Count)
	}
}
