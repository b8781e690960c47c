package health

import (
	"testing"
	"time"

	"github.com/rfid-lion/lion/internal/geom"
)

// TestNilMonitorZeroOverhead pins the disabled-monitor contract: feeding a
// nil *Monitor allocates nothing, mirroring the nil-Tracer guarantee.
func TestNilMonitorZeroOverhead(t *testing.T) {
	var m *Monitor
	pos := geom.V3(1, 2, 3)
	o := SolveObservation{Tag: "T1", Time: time.Second, Residual: 0.1}
	allocs := testing.AllocsPerRun(1000, func() {
		m.ObserveSample("A1", time.Second, pos, 1.0)
		m.ObserveDrop(time.Second)
		m.ObserveSolve(o)
		_ = m.WantsTraces()
		_ = m.CriticalFiring()
	})
	if allocs != 0 {
		t.Errorf("nil monitor allocated %v per run, want 0", allocs)
	}
}

// TestObserveSolveZeroAllocs pins the monitored hot path: a healthy solve
// on a known tag, with every default rule and a calibrated antenna's drift
// rule evaluated, allocates nothing (the alert scopes are built once, when
// the tag and the antenna are first seen).
func TestObserveSolveZeroAllocs(t *testing.T) {
	m, err := New(Config{Calibrations: []Calibration{testCalibration()}})
	if err != nil {
		t.Fatal(err)
	}
	o := SolveObservation{
		Tag: "T1", Window: 64, Residual: 0.01,
		Condition: 10, Iterations: 3, Latency: 100 * time.Microsecond,
	}
	m.ObserveSolve(o) // first sight of T1 builds its state
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		o.Time = time.Duration(i) * time.Millisecond
		m.ObserveSolve(o)
	})
	if allocs != 0 {
		t.Errorf("ObserveSolve allocated %v per run, want 0", allocs)
	}
}

func BenchmarkObserveSampleMonitored(b *testing.B) {
	m, err := New(Config{Calibrations: []Calibration{testCalibration()}, FlightDepth: -1})
	if err != nil {
		b.Fatal(err)
	}
	pos := geom.V3(0.5, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ObserveSample("A1", time.Duration(i), pos, 1.0)
	}
}

func BenchmarkObserveSolveMonitored(b *testing.B) {
	m, err := New(Config{Calibrations: []Calibration{testCalibration()}, FlightDepth: -1})
	if err != nil {
		b.Fatal(err)
	}
	o := SolveObservation{
		Tag: "T1", Window: 64, Residual: 0.01,
		Condition: 10, Iterations: 3, Latency: 100 * time.Microsecond,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Time = time.Duration(i) * time.Millisecond
		m.ObserveSolve(o)
	}
}

func BenchmarkObserveSolveNil(b *testing.B) {
	var m *Monitor
	o := SolveObservation{Tag: "T1", Residual: 0.01}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ObserveSolve(o)
	}
}
