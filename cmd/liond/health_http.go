// Health and alerting endpoints: /v1/alerts, /readyz, /debug/flight/{id}.
// The liveness/readiness split follows the usual orchestration contract —
// /healthz answers 200 for as long as the process can serve HTTP at all,
// while /readyz reports whether this instance should receive traffic: it
// returns 503 once the daemon starts draining or while any critical-severity
// alert (ill-conditioned solves, solver failures, calibration drift) fires.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"github.com/rfid-lion/lion/internal/health"
)

// alertJSON is the wire form of one alert. Timestamps are stream time,
// seconds since the stream's epoch — the clock alert hysteresis runs on.
type alertJSON struct {
	Rule      string  `json:"rule"`
	Signal    string  `json:"signal"`
	Severity  string  `json:"severity"`
	Scope     string  `json:"scope"`
	State     string  `json:"state"`
	Value     float64 `json:"value"`
	RawValue  float64 `json:"raw_value"`
	Baseline  float64 `json:"baseline,omitempty"`
	Threshold float64 `json:"threshold"`
	StartedS  float64 `json:"started_s"`
	FiredS    float64 `json:"fired_s,omitempty"`
	ResolvedS float64 `json:"resolved_s,omitempty"`
	UpdatedS  float64 `json:"updated_s"`
	Evidence  int     `json:"evidence_traces,omitempty"`
}

// driftJSON is the wire form of one antenna's drift status.
type driftJSON struct {
	Antenna     string  `json:"antenna"`
	CalibratedR float64 `json:"calibrated_rad"`
	EstimatedR  float64 `json:"estimated_rad"`
	DriftR      float64 `json:"drift_rad"`
	DriftLambda float64 `json:"drift_lambda"`
	Samples     int     `json:"samples"`
	Valid       bool    `json:"valid"`
}

func toAlertJSON(a health.Alert) alertJSON {
	return alertJSON{
		Rule:      a.Rule,
		Signal:    string(a.Signal),
		Severity:  a.Severity.String(),
		Scope:     a.Scope,
		State:     a.State.String(),
		Value:     a.Value,
		RawValue:  a.RawValue,
		Baseline:  a.Baseline,
		Threshold: a.Threshold,
		StartedS:  a.StartedAt.Seconds(),
		FiredS:    a.FiredAt.Seconds(),
		ResolvedS: a.ResolvedAt.Seconds(),
		UpdatedS:  a.UpdatedAt.Seconds(),
		Evidence:  len(a.Evidence),
	}
}

// handleAlerts serves the active alerts, the recently-resolved history, and
// the per-antenna drift status as one JSON document.
func (s *server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if s.mon == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("monitoring disabled (liond runs with -monitor=false)"))
		return
	}
	active := []alertJSON{}
	resolved := []alertJSON{}
	for _, a := range s.mon.Alerts() {
		if a.State == health.StateResolved {
			resolved = append(resolved, toAlertJSON(a))
		} else {
			active = append(active, toAlertJSON(a))
		}
	}
	drifts := []driftJSON{}
	for _, d := range s.mon.Drifts() {
		drifts = append(drifts, driftJSON{
			Antenna:     d.Antenna,
			CalibratedR: d.Calibrated,
			EstimatedR:  d.Estimated,
			DriftR:      d.DriftRad,
			DriftLambda: d.DriftLambda,
			Samples:     d.Samples,
			Valid:       d.Valid,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"active":   active,
		"resolved": resolved,
		"drifts":   drifts,
	})
}

// handleReady is the readiness probe. A nil monitor never blocks readiness:
// the daemon is ready unless it is draining.
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.mon.CriticalFiring():
		// The exact status string is part of the cluster protocol: lionroute
		// parses it and parks the shard query-only (internal/cluster).
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "critical-alert"})
	default:
		// wire_trace advertises that POST /v1/samples decodes the FlagTrace
		// wire extension. lionroute's health probe reads this field and only
		// puts trace extensions on the wire to shards that opted in, so old
		// decoders never see flagged frames.
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "wire_trace": true})
	}
}

// handleFlight serves the tag's flight-recorder traces as NDJSON: one JSON
// object per retained solve, oldest first, each carrying its full event
// list in the frozen obs.Tracer schema.
func (s *server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.mon == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("monitoring disabled (liond runs with -monitor=false)"))
		return
	}
	tag := r.PathValue("id")
	records := s.mon.Flight(tag)
	if len(records) == 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("no flight records for tag %q", tag))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, rec := range records {
		enc.Encode(map[string]any{
			"tag":    rec.Tag,
			"seq":    rec.Seq,
			"t_s":    rec.Time.Seconds(),
			"window": rec.Window,
			"error":  rec.Err,
			"events": rec.Events,
		})
	}
}
