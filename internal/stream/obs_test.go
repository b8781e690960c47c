package stream

import (
	"context"
	"strings"
	"sync"
	"testing"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/health"
	lionobs "github.com/rfid-lion/lion/internal/obs"
)

// TestEngineExportsRegistryMetrics checks that the engine's counters land in
// its registry under the lion_stream_* names and agree with the Metrics()
// snapshot after a replayed trace.
func TestEngineExportsRegistryMetrics(t *testing.T) {
	trace, lambda := testTrace(t, 55)
	cfg := lineConfig(lambda)
	reg := lionobs.NewRegistry()
	cfg.Registry = reg
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Registry() != reg {
		t.Fatal("Registry() did not return the configured registry")
	}
	for _, s := range toStream(trace[:128]) {
		if err := e.Ingest("T1", s); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	reg.WritePrometheus(&buf)
	exp := buf.String()
	m := e.Metrics()
	for _, want := range []string{
		"lion_stream_ingested_total 128",
		"lion_stream_solve_latency_seconds_count",
		"lion_batch_jobs_total{result=\"ok\"}",
		"lion_stream_tags 1",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q:\n%s", want, exp)
		}
	}
	if m.Ingested != 128 {
		t.Errorf("Metrics().Ingested = %d, want 128", m.Ingested)
	}
	if m.Solves == 0 || m.LatencyCount == 0 {
		t.Errorf("solves/latency not recorded: %+v", m)
	}
}

// TestEngineFlightRecorderTraces checks that the monitor's flight recorder
// is the per-tag store of solve traces — the newest record carries the
// solver's iteration events — and that solves are traced iff the monitor
// keeps a recorder.
func TestEngineFlightRecorderTraces(t *testing.T) {
	trace, lambda := testTrace(t, 56)
	run := func(mon *health.Monitor) (traced bool) {
		t.Helper()
		cfg := lineConfig(lambda)
		inner := cfg.Solver
		var mu sync.Mutex
		cfg.Solver = func(win []core.PosPhase, tr *lionobs.Tracer) (*core.Solution, error) {
			mu.Lock()
			traced = traced || tr != nil
			mu.Unlock()
			return inner(win, tr)
		}
		cfg.Monitor = mon
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range toStream(trace[:160]) {
			if err := e.Ingest("T1", s); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		return traced
	}

	mon, err := health.New(health.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !run(mon) {
		t.Error("solves untraced under a flight recorder")
	}
	records := mon.Flight("T1")
	if len(records) == 0 {
		t.Fatal("flight recorder retained no trace")
	}
	var iters int
	for _, ev := range records[len(records)-1].Events {
		if ev.Kind == lionobs.KindIRLSIter {
			iters++
		}
	}
	if iters == 0 {
		t.Errorf("newest flight record has no irls_iter events: %+v", records[len(records)-1])
	}
	if got := mon.Flight("T2"); len(got) != 0 {
		t.Errorf("unknown tag has %d flight records", len(got))
	}

	noFlight, err := health.New(health.Config{FlightDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	if run(noFlight) || run(nil) {
		t.Error("solves traced without a flight recorder")
	}
}
