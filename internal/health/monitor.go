package health

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/obs"
)

// Config parameterises a Monitor.
type Config struct {
	// Rules is the declarative rule set; nil means DefaultRules(). Rule
	// names must be unique.
	Rules []Rule
	// Calibrations enables the drift detector for the listed antennas.
	// Samples reported for antennas not listed here are counted for drop
	// accounting but take no part in drift estimation.
	Calibrations []Calibration
	// BaselineWindow is the per-signal rolling window deviation rules take
	// z-scores over; zero defaults to 128.
	BaselineWindow int
	// MinBaseline gates deviation rules until a scope's window holds this
	// many points; zero defaults to 16.
	MinBaseline int
	// RateAlpha smooths the global error- and drop-rate signals; zero
	// defaults to 0.2.
	RateAlpha float64
	// MaxTags bounds the per-tag baseline sessions (least-recently-observed
	// evicted); zero defaults to 256.
	MaxTags int
	// FlightDepth is the per-tag flight-recorder ring size; zero defaults
	// to 8, negative disables the recorder entirely.
	FlightDepth int
	// ResolvedHistory bounds the recently-resolved alert list; zero
	// defaults to 32.
	ResolvedHistory int
	// Registry receives the monitor's lion_health_* metrics. Nil means a
	// private registry.
	Registry *obs.Registry
	// Logger, when non-nil, gets one structured line per alert transition.
	Logger *obs.Logger
}

const (
	// baselineAlpha is the baselines' EWMA smoothing factor.
	baselineAlpha = 0.05
	// flightTags bounds the flight recorder's tag count.
	flightTags = 64
)

func (c *Config) applyDefaults() {
	if c.BaselineWindow <= 0 {
		c.BaselineWindow = 128
	}
	if c.MinBaseline <= 0 {
		c.MinBaseline = 16
	}
	if c.RateAlpha <= 0 {
		c.RateAlpha = 0.2
	}
	if c.MaxTags <= 0 {
		c.MaxTags = 256
	}
	if c.FlightDepth == 0 {
		c.FlightDepth = 8
	}
	if c.ResolvedHistory <= 0 {
		c.ResolvedHistory = 32
	}
}

// rate is an EWMA of a [0, 1] indicator stream.
type rate struct {
	alpha float64
	v     float64
	seen  bool
}

func (r *rate) add(x float64) {
	if !r.seen {
		r.v, r.seen = x, true
		return
	}
	r.v += r.alpha * (x - r.v)
}

// tagState is one tag's rolling baselines.
type tagState struct {
	baselines map[Signal]*baseline
	touched   time.Duration
	scope     string // the tag's alert scope, "tag:<id>"
}

// perTagSignals are the signals evaluated against a tag's own baseline.
var perTagSignals = [...]Signal{SignalResidual, SignalCondition, SignalIterations, SignalLatency}

// evalBuckets size the evaluation-latency histogram: a full rule pass is
// microseconds, far below solve latency.
var evalBuckets = []float64{1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 1e-3, 1e-2}

// Monitor consumes the pipeline's solve and ingest signals and maintains
// baselines, drift estimates, alerts, and the flight recorder. The nil
// Monitor is the disabled state: every method is a nil-check no-op.
type Monitor struct {
	mu  sync.Mutex
	cfg Config

	rules []Rule
	tags  map[string]*tagState
	drift map[string]*driftEstimator
	order []string // calibration antenna ids, registration order
	// driftScope is the drift alert scope "antenna:<id>" of each order
	// entry, built once so evaluating the drift rules allocates nothing.
	driftScope []string
	active     map[alertKey]*alertState
	// resolved holds recently resolved alerts, oldest first.
	resolved []Alert

	errRate                   rate
	dropRate                  rate
	accepted, dropped         uint64
	lastAccepted, lastDropped uint64

	// now is the logical clock: the high-water mark of observed stream
	// timestamps. Alert hold-down and resolve hysteresis are measured on
	// it, which keeps transitions deterministic under accelerated replay.
	now time.Duration

	// onTransition is the SetOnTransition subscriber. hookQueue collects
	// state-entry alert copies during a locked evaluation pass; ObserveSolve
	// drains it to onTransition after unlocking so callbacks never run under
	// the monitor mutex.
	onTransition func(Alert)
	hookQueue    []Alert

	flight *FlightRecorder

	reg           *obs.Registry
	evalSeconds   *obs.Histogram
	observed      *obs.Counter
	flightRecords *obs.Counter
	transPending  *obs.Counter
	transFiring   *obs.Counter
	transResolved *obs.Counter
	transCanceled *obs.Counter
	firingGauges  map[string]*obs.Gauge // per rule name
	driftGauges   map[string]*obs.Gauge // per antenna id
}

// New validates the configuration and returns a ready monitor.
func New(cfg Config) (*Monitor, error) {
	cfg.applyDefaults()
	rules := cfg.Rules
	if rules == nil {
		rules = DefaultRules()
	}
	seen := map[string]bool{}
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("health: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Monitor{
		cfg:      cfg,
		rules:    rules,
		tags:     make(map[string]*tagState),
		drift:    make(map[string]*driftEstimator),
		active:   make(map[alertKey]*alertState),
		errRate:  rate{alpha: cfg.RateAlpha},
		dropRate: rate{alpha: cfg.RateAlpha},

		reg: reg,
		evalSeconds: reg.Histogram("lion_health_eval_seconds",
			"Wall time of one health rule evaluation pass.", evalBuckets),
		observed: reg.Counter("lion_health_solves_observed_total",
			"Window solves fed into the health monitor."),
		flightRecords: reg.Counter("lion_health_flight_records_total",
			"Solve traces recorded by the flight recorder."),
		firingGauges: make(map[string]*obs.Gauge),
		driftGauges:  make(map[string]*obs.Gauge),
	}
	if cfg.FlightDepth > 0 {
		m.flight = NewFlightRecorder(cfg.FlightDepth, flightTags)
	}
	trans := reg.CounterVec("lion_health_alert_transitions_total",
		"Alert state transitions, by entered state (cancelled = pending healed).", "state")
	m.transPending = trans.With("pending")
	m.transFiring = trans.With("firing")
	m.transResolved = trans.With("resolved")
	m.transCanceled = trans.With("cancelled")
	firing := reg.GaugeVec("lion_health_alerts_firing",
		"Alerts currently firing, by rule.", "rule")
	for _, r := range rules {
		// metriclint:bounded rule names come from the validated static rule set
		m.firingGauges[r.Name] = firing.With(r.Name)
	}
	driftGauge := reg.GaugeVec("lion_health_drift_lambda",
		"Signed phase-offset drift per antenna, as a fraction of the wavelength.", "antenna")
	seenAnt := map[string]bool{}
	for _, cal := range cfg.Calibrations {
		if err := cal.validate(); err != nil {
			return nil, err
		}
		if seenAnt[cal.Antenna] {
			return nil, fmt.Errorf("health: duplicate calibration for antenna %q", cal.Antenna)
		}
		seenAnt[cal.Antenna] = true
		m.drift[cal.Antenna] = newDriftEstimator(cal)
		m.order = append(m.order, cal.Antenna)
		m.driftScope = append(m.driftScope, "antenna:"+cal.Antenna)
		// metriclint:bounded antenna ids come from the configured calibration set
		m.driftGauges[cal.Antenna] = driftGauge.With(cal.Antenna)
	}
	reg.GaugeFunc("lion_health_alerts_active", "Active (pending or firing) alerts.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.active))
	})
	reg.GaugeFunc("lion_health_flight_traces", "Solve traces retained by the flight recorder.", func() float64 {
		if m.flight == nil {
			return 0
		}
		return float64(m.flight.Len())
	})
	return m, nil
}

// Registry returns the metrics registry backing the monitor's metrics.
func (m *Monitor) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// WantsTraces reports whether solve observations should carry tracer events
// (the flight recorder is enabled). Nil-safe.
func (m *Monitor) WantsTraces() bool {
	return m != nil && m.flight != nil
}

// Rules returns a copy of the monitor's rule set.
func (m *Monitor) Rules() []Rule {
	if m == nil {
		return nil
	}
	out := make([]Rule, len(m.rules))
	copy(out, m.rules)
	return out
}

// advanceLocked moves the logical clock forward, never backward.
func (m *Monitor) advanceLocked(t time.Duration) {
	if t > m.now {
		m.now = t
	}
}

// ObserveSample records one accepted ingest sample: drop-rate accounting
// plus the antenna's drift estimator (O(1), one Sincos). Called on the
// ingest hot path; a nil monitor costs one nil check.
func (m *Monitor) ObserveSample(antenna string, t time.Duration, pos geom.Vec3, phase float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.accepted++
	m.advanceLocked(t)
	if d := m.drift[antenna]; d != nil {
		d.add(pos, phase)
	}
	m.mu.Unlock()
}

// ObserveDrop records one dropped sample (overflow or age eviction).
func (m *Monitor) ObserveDrop(t time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.dropped++
	m.advanceLocked(t)
	m.mu.Unlock()
}

// ObserveSolve feeds one window solve through the rule set: it records the
// trace into the flight recorder, updates the scope baselines and global
// rates, and advances every matching alert state machine.
func (m *Monitor) ObserveSolve(o SolveObservation) {
	if m == nil {
		return
	}
	begin := time.Now()
	m.observed.Inc()
	m.mu.Lock()
	m.advanceLocked(o.Time)
	now := m.now

	// Record the trace first so a firing alert's evidence includes the
	// solve that confirmed it.
	if m.flight != nil && (len(o.Trace) > 0 || o.Failed) {
		m.flight.Record(TraceRecord{
			Tag: o.Tag, Seq: o.Seq, Time: o.Time, Window: o.Window,
			Err: o.Err, Events: o.Trace,
		})
		m.flightRecords.Inc()
	}

	if !o.Failed {
		ts := m.tagStateLocked(o.Tag, now)
		scope := ts.scope
		for _, r := range m.rules {
			v, ok := perTagValue(r.Signal, o)
			if !ok {
				continue
			}
			switch r.Kind {
			case KindStatic:
				m.transitionLocked(r, scope, o.Tag, v > r.Threshold, v, v, 0, now)
			case KindDeviation:
				b := ts.baselines[r.Signal]
				z, established := b.zscore(v, m.cfg.MinBaseline)
				m.transitionLocked(r, scope, o.Tag, established && z > r.Threshold, z, v, b.mean(), now)
			}
		}
		// Baselines absorb the value only after every rule evaluated
		// against the pre-observation window.
		for _, sig := range perTagSignals {
			v, _ := perTagValue(sig, o)
			ts.baselines[sig].add(v)
		}
	}

	m.errRate.add(bool01(o.Failed))
	for _, r := range m.rules {
		if r.Signal == SignalErrorRate {
			m.transitionLocked(r, "stream", o.Tag, m.errRate.v > r.Threshold, m.errRate.v, m.errRate.v, 0, now)
		}
	}

	if dA, dD := m.accepted-m.lastAccepted, m.dropped-m.lastDropped; dA+dD > 0 {
		m.dropRate.add(float64(dD) / float64(dA+dD))
		m.lastAccepted, m.lastDropped = m.accepted, m.dropped
	}
	for _, r := range m.rules {
		if r.Signal == SignalDropRate {
			m.transitionLocked(r, "stream", o.Tag, m.dropRate.v > r.Threshold, m.dropRate.v, m.dropRate.v, 0, now)
		}
	}

	for i, ant := range m.order {
		st := m.drift[ant].status()
		gauge := 0.0
		if st.Valid {
			gauge = st.DriftRad / (4 * math.Pi)
		}
		m.driftGauges[ant].Set(gauge)
		for _, r := range m.rules {
			if r.Signal == SignalDrift {
				m.transitionLocked(r, m.driftScope[i], o.Tag,
					st.Valid && st.DriftLambda > r.Threshold, st.DriftLambda, st.DriftRad, st.Calibrated, now)
			}
		}
	}
	hooks := m.hookQueue
	m.hookQueue = nil
	fn := m.onTransition
	m.mu.Unlock()
	for _, a := range hooks {
		fn(a)
	}
	m.evalSeconds.Observe(time.Since(begin).Seconds())
}

// SetOnTransition installs (or replaces) the transition subscriber: fn is
// invoked with a copy of the alert each time it enters a new state
// (pending, firing, resolved; a pending alert that heals is dropped
// silently). Callbacks run on the observing goroutine after the monitor's
// lock is released, in transition order — they may call back into the
// monitor but must not block for long, as they hold up the solve
// pipeline's observation hook. This is the subscription point for
// closed-loop consumers such as the recalibration controller. Transitions
// evaluated before the subscriber is installed are not replayed.
func (m *Monitor) SetOnTransition(fn func(Alert)) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.onTransition = fn
	m.mu.Unlock()
}

// perTagValue extracts a per-solve signal from the observation.
func perTagValue(sig Signal, o SolveObservation) (float64, bool) {
	switch sig {
	case SignalResidual:
		return o.Residual, true
	case SignalCondition:
		return o.Condition, true
	case SignalIterations:
		return float64(o.Iterations), true
	case SignalLatency:
		return o.Latency.Seconds(), true
	}
	return 0, false
}

func bool01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// tagStateLocked returns the tag's baseline set, creating it (and evicting
// the least-recently-observed tag past the bound) on first sight.
func (m *Monitor) tagStateLocked(tag string, now time.Duration) *tagState {
	ts := m.tags[tag]
	if ts == nil {
		if len(m.tags) >= m.cfg.MaxTags {
			var victim string
			var oldest time.Duration
			first := true
			for id, s := range m.tags {
				if first || s.touched < oldest {
					victim, oldest, first = id, s.touched, false
				}
			}
			delete(m.tags, victim)
		}
		ts = &tagState{baselines: make(map[Signal]*baseline, len(perTagSignals)), scope: "tag:" + tag}
		for _, sig := range perTagSignals {
			ts.baselines[sig] = newBaseline(m.cfg.BaselineWindow, baselineAlpha)
		}
		m.tags[tag] = ts
	}
	ts.touched = now
	return ts
}

// transitionLocked advances one (rule, scope) alert state machine by one
// evaluation tick.
func (m *Monitor) transitionLocked(r Rule, scope, evidenceTag string, violating bool, value, raw, base float64, now time.Duration) {
	key := alertKey{rule: r.Name, scope: scope}
	st := m.active[key]
	if violating {
		if st == nil {
			st = &alertState{Alert: Alert{
				Rule: r.Name, Signal: r.Signal, Severity: r.Severity, Scope: scope,
				State: StatePending, Threshold: r.Threshold, StartedAt: now,
			}}
			m.active[key] = st
			m.transPending.Inc()
			m.cfg.Logger.Info("alert pending", "rule", r.Name, "scope", scope, "value", value)
			st.Value, st.RawValue, st.Baseline, st.UpdatedAt = value, raw, base, now
			m.enqueueHookLocked(st.Alert)
		}
		st.Value, st.RawValue, st.Baseline, st.UpdatedAt = value, raw, base, now
		st.healthy = false
		if st.State == StatePending && now-st.StartedAt >= r.HoldDown {
			st.State = StateFiring
			st.FiredAt = now
			if m.flight != nil {
				st.Evidence = m.flight.Tag(evidenceTag)
			}
			m.firingGauges[r.Name].Add(1)
			m.transFiring.Inc()
			m.cfg.Logger.Warn("alert firing",
				"rule", r.Name, "scope", scope, "severity", r.Severity.String(),
				"value", value, "threshold", r.Threshold)
			m.enqueueHookLocked(st.Alert)
		}
		return
	}
	if st == nil {
		return
	}
	st.UpdatedAt = now
	switch st.State {
	case StatePending:
		delete(m.active, key)
		m.transCanceled.Inc()
	case StateFiring:
		if !st.healthy {
			st.healthy, st.healthySince = true, now
		}
		if now-st.healthySince >= r.resolveAfter() {
			st.State = StateResolved
			st.ResolvedAt = now
			delete(m.active, key)
			m.resolved = append(m.resolved, st.Alert)
			if over := len(m.resolved) - m.cfg.ResolvedHistory; over > 0 {
				m.resolved = append(m.resolved[:0], m.resolved[over:]...)
			}
			m.firingGauges[r.Name].Add(-1)
			m.transResolved.Inc()
			m.cfg.Logger.Info("alert resolved", "rule", r.Name, "scope", scope)
			m.enqueueHookLocked(st.Alert)
		}
	}
}

// enqueueHookLocked queues an alert copy for post-unlock delivery to the
// SetOnTransition subscriber.
func (m *Monitor) enqueueHookLocked(a Alert) {
	if m.onTransition != nil {
		m.hookQueue = append(m.hookQueue, a)
	}
}

// SwapCalibration atomically replaces the recorded calibration of an
// already-registered antenna and resets its drift estimator: the sliding
// window is emptied so the re-estimate restarts from post-swap samples
// only, never mixing offsets measured under the old profile with the new
// reference. A firing calibration_drift alert for the antenna therefore
// heals on its own once the corrected profile's samples fill the window.
// Only antennas registered at construction can be swapped — the gauge and
// alert-scope cardinality stays bounded by configuration.
func (m *Monitor) SwapCalibration(cal Calibration) error {
	if m == nil {
		return fmt.Errorf("health: nil monitor cannot swap calibrations")
	}
	if err := cal.validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.drift[cal.Antenna]; !ok {
		return fmt.Errorf("health: no calibration registered for antenna %q", cal.Antenna)
	}
	m.drift[cal.Antenna] = newDriftEstimator(cal)
	return nil
}

// Calibration returns the current recorded calibration for an antenna.
func (m *Monitor) Calibration(antenna string) (Calibration, bool) {
	if m == nil {
		return Calibration{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.drift[antenna]
	if d == nil {
		return Calibration{}, false
	}
	return d.cal, true
}

// Alerts returns every active alert plus the recently-resolved history:
// firing first, then pending (each newest first), then resolved newest
// first. The returned alerts are copies; Evidence slices are shared but
// immutable.
func (m *Monitor) Alerts() []Alert {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Alert, 0, len(m.active)+len(m.resolved))
	for _, st := range m.active {
		out = append(out, st.Alert)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].State != out[j].State {
			return out[i].State == StateFiring
		}
		if out[i].StartedAt != out[j].StartedAt {
			return out[i].StartedAt > out[j].StartedAt
		}
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Scope < out[j].Scope
	})
	for i := len(m.resolved) - 1; i >= 0; i-- {
		out = append(out, m.resolved[i])
	}
	return out
}

// CriticalFiring reports whether any critical-severity alert is firing —
// the readiness signal. Nil-safe: a nil monitor is always ready.
func (m *Monitor) CriticalFiring() bool {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.active {
		if st.State == StateFiring && st.Severity == SevCritical {
			return true
		}
	}
	return false
}

// Drifts returns the drift status of every calibrated antenna, in
// configuration order.
func (m *Monitor) Drifts() []DriftStatus {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]DriftStatus, 0, len(m.order))
	for _, ant := range m.order {
		out = append(out, m.drift[ant].status())
	}
	return out
}

// Series returns a copy of the tag's rolling baseline window for one
// per-solve signal, oldest first — the raw series dashboards render as
// sparklines. Nil when the tag or signal is unknown.
func (m *Monitor) Series(tag string, sig Signal) []float64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tags[tag]
	if ts == nil {
		return nil
	}
	b := ts.baselines[sig]
	if b == nil || b.n == 0 {
		return nil
	}
	out := make([]float64, 0, b.n)
	start := b.next - b.n
	if start < 0 {
		start += len(b.buf)
	}
	for i := 0; i < b.n; i++ {
		out = append(out, b.buf[(start+i)%len(b.buf)])
	}
	return out
}

// Flight returns the tag's retained solve traces, oldest first. Nil-safe.
func (m *Monitor) Flight(tag string) []TraceRecord {
	if m == nil || m.flight == nil {
		return nil
	}
	return m.flight.Tag(tag)
}

// FlightTags returns the tags with retained traces, sorted. Nil-safe.
func (m *Monitor) FlightTags() []string {
	if m == nil || m.flight == nil {
		return nil
	}
	return m.flight.Tags()
}
