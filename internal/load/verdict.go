package load

import (
	"fmt"
	"time"
)

// Check is one scored SLO bound.
type Check struct {
	// Name identifies the bound ("ingest_p99", "drop_rate", ...).
	Name string
	// Value is what the run measured; Bound is the scenario's target.
	Value float64
	Bound float64
	// Unit labels both numbers ("s", "ratio").
	Unit string
	// OK reports whether the bound held. Skipped marks bounds that could
	// not be scored (dimension never observed); a skipped check does not
	// fail the verdict but is reported.
	OK      bool
	Skipped bool
	// Detail optionally explains the score.
	Detail string
}

// Verdict is the scored outcome of one run.
type Verdict struct {
	Checks []Check
	// Pass is true when every non-skipped check held.
	Pass bool
}

// String renders "PASS"/"FAIL".
func (v *Verdict) String() string {
	if v.Pass {
		return "PASS"
	}
	return "FAIL"
}

// failures returns the failed checks.
func (v *Verdict) failures() []Check {
	var out []Check
	for _, c := range v.Checks {
		if !c.OK && !c.Skipped {
			out = append(out, c)
		}
	}
	return out
}

// Evaluate scores a run against its scenario's SLOs: client-observed ingest
// quantiles, delivery rates, the server-reported staleness and alert
// latency from the scrape, and the client/server p99 agreement band.
func Evaluate(res *Result) *Verdict {
	slo := res.Scenario.SLO
	total := res.Recorder.Total()
	v := &Verdict{Pass: true}
	add := func(c Check) {
		if !c.OK && !c.Skipped {
			v.Pass = false
		}
		v.Checks = append(v.Checks, c)
	}
	quantile := func(name string, q float64, bound time.Duration) {
		if bound <= 0 {
			return
		}
		val, ok := total.Hist.Quantile(q)
		if !ok {
			add(Check{Name: name, Bound: bound.Seconds(), Unit: "s",
				Skipped: true, Detail: "no samples recorded"})
			return
		}
		add(Check{Name: name, Value: val, Bound: bound.Seconds(), Unit: "s",
			OK: val <= bound.Seconds()})
	}
	quantile("ingest_p50", 0.50, slo.IngestP50)
	quantile("ingest_p95", 0.95, slo.IngestP95)
	quantile("ingest_p99", 0.99, slo.IngestP99)

	if slo.MaxDropRate > 0 {
		add(Check{Name: "drop_rate", Value: total.DropRate(), Bound: slo.MaxDropRate,
			Unit: "ratio", OK: total.DropRate() <= slo.MaxDropRate})
	}
	if slo.MaxErrorRate > 0 {
		add(Check{Name: "error_rate", Value: total.ErrorRate(), Bound: slo.MaxErrorRate,
			Unit: "ratio", OK: total.ErrorRate() <= slo.MaxErrorRate})
	}

	if slo.StalenessP99 > 0 {
		if d := res.Scrape.Dims["staleness_seconds"]; d != nil {
			add(Check{Name: "staleness_p99", Value: d.WorstP99,
				Bound: slo.StalenessP99.Seconds(), Unit: "s",
				OK:     d.WorstP99 <= slo.StalenessP99.Seconds(),
				Detail: "worst scraped window"})
		} else {
			add(Check{Name: "staleness_p99", Bound: slo.StalenessP99.Seconds(),
				Unit: "s", Skipped: true, Detail: "dimension never scraped"})
		}
	}
	if slo.AlertLatencyMax > 0 {
		if res.Scrape.AlertSeen {
			add(Check{Name: "alert_latency", Value: res.Scrape.AlertLatency,
				Bound: slo.AlertLatencyMax.Seconds(), Unit: "s",
				OK: res.Scrape.AlertLatency <= slo.AlertLatencyMax.Seconds()})
		} else {
			add(Check{Name: "alert_latency", Bound: slo.AlertLatencyMax.Seconds(),
				Unit: "s", Skipped: true, OK: true, Detail: "no alert fired"})
		}
	}

	if slo.AgreeFactor > 0 {
		clientP99, okC := total.Hist.Quantile(0.99)
		d := res.Scrape.Dims["ingest_request_seconds"]
		switch {
		case !okC || d == nil || !d.Evidence:
			add(Check{Name: "p99_agreement", Unit: "s", Skipped: true,
				Detail: "server ingest_request_seconds not scraped"})
		default:
			serverP99 := d.WorstP99
			slack := slo.AgreeSlack.Seconds()
			// Each side may exceed the other only by the factor+slack band.
			// The client's clock includes schedule wait and transport, so
			// client >= server is expected; a server p99 far above the
			// client's means the instrumentation disagrees about the run.
			ok := clientP99 <= slo.AgreeFactor*serverP99+slack &&
				serverP99 <= slo.AgreeFactor*clientP99+slack
			add(Check{Name: "p99_agreement", Value: clientP99, Bound: serverP99,
				Unit: "s", OK: ok,
				Detail: fmt.Sprintf("client %.4fs vs server %.4fs (factor %g, slack %s)",
					clientP99, serverP99, slo.AgreeFactor, slo.AgreeSlack)})
		}
	}
	return v
}
