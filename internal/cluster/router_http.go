package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/stats"
	"github.com/rfid-lion/lion/internal/wire"
)

// maxIngestBody bounds one router ingest request, mirroring liond.
const maxIngestBody = 64 << 20

// Routes builds the router's HTTP mux:
//
//	POST /v1/samples               ingest (NDJSON or binary wire frames)
//	GET  /v1/tags                  union of tag ids across live shards
//	GET  /v1/tags/{id}/estimate    proxied to the owning shard
//	GET  /v1/alerts                per-shard alert documents
//	GET  /v1/cluster               shard states and queue depths
//	GET  /v1/slo                   per-shard SLO documents + cluster rollup
//	GET  /v1/trace/{id}            assembled cross-process pipeline trace
//	GET  /debug/pipespans          router span log as NDJSON (?trace=<hex>)
//	GET  /healthz                  router liveness
//	GET  /readyz                   503 until at least one shard takes ingest
//	GET  /metrics                  lion_cluster_* Prometheus exposition
func (rt *Router) Routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/samples", rt.handleIngest)
	mux.HandleFunc("GET /v1/tags", rt.handleTags)
	mux.HandleFunc("GET /v1/tags/{id}/estimate", rt.handleEstimate)
	mux.HandleFunc("GET /v1/alerts", rt.handleAlerts)
	mux.HandleFunc("GET /v1/cluster", rt.handleCluster)
	mux.HandleFunc("GET /v1/slo", rt.handleSLO)
	mux.HandleFunc("GET /v1/trace/{id}", rt.handleTrace)
	mux.HandleFunc("GET /debug/pipespans", rt.handlePipeSpans)
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.HandleFunc("GET /readyz", rt.handleReady)
	mux.Handle("GET /metrics", rt.reg.Handler())
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

// ingestCodecs is the negotiation list: NDJSON first so it is the fallback
// for curl-style clients, wire matched exactly by content type.
var ingestCodecs = []dataset.Codec{dataset.NDJSON{}, wire.Codec{}}

func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	recv := time.Now()
	// Full request wall time at the router: the server-side twin of a load
	// generator's client-observed ingest latency against a cluster.
	defer func() { rt.ingestReq.Observe(time.Since(recv).Seconds()) }()
	codec := dataset.SelectCodec(ingestCodecs, r.Header.Get("Content-Type"))
	samples, err := codec.Decode(http.MaxBytesReader(w, r.Body, maxIngestBody))
	decodeTook := time.Since(recv)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tc := rt.sampler.Next()
	rt.ingestDecode.ObserveExemplar(decodeTook.Seconds(), tc)
	if tc.Sampled && rt.spans != nil {
		rt.spans.Record(tc, "ingest_decode", "", recv, decodeTook)
	}
	res, err := rt.IngestTraced(samples, tc, recv)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (rt *Router) handleEstimate(w http.ResponseWriter, r *http.Request) {
	tag := r.PathValue("id")
	s := rt.shards[rt.ring.Owner(tag)]
	if s.State() == ShardEjected {
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("shard %s owning tag %q is ejected", s.id, tag))
		return
	}
	rt.proxy(w, s, "/v1/tags/"+tag+"/estimate")
}

// proxy forwards one GET to a shard and relays status, content type, and
// body verbatim.
func (rt *Router) proxy(w http.ResponseWriter, s *shard, path string) {
	resp, err := rt.client.Get(s.base + path)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("shard %s: %w", s.id, err))
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// fanOut issues one GET per non-ejected shard concurrently and returns each
// shard's body (or error) keyed by shard id.
func (rt *Router) fanOut(path string) map[string]json.RawMessage {
	out := make(map[string]json.RawMessage, len(rt.shards))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, s := range rt.shards {
		if s.State() == ShardEjected {
			out[s.id] = errJSON(fmt.Errorf("shard ejected"))
			continue
		}
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			body, err := rt.get(s, path)
			if err != nil {
				body = errJSON(err)
			}
			mu.Lock()
			out[s.id] = body
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	return out
}

// get fetches one shard endpoint, insisting on a 200 JSON answer.
func (rt *Router) get(s *shard, path string) (json.RawMessage, error) {
	resp, err := rt.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxIngestBody))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	if !json.Valid(body) {
		return nil, fmt.Errorf("shard returned non-JSON body")
	}
	return body, nil
}

func errJSON(err error) json.RawMessage {
	b, _ := json.Marshal(map[string]string{"error": err.Error()})
	return b
}

func (rt *Router) handleTags(w http.ResponseWriter, r *http.Request) {
	merged := make(map[string]bool)
	for _, body := range rt.fanOut("/v1/tags") {
		var doc struct {
			Tags []string `json:"tags"`
		}
		if json.Unmarshal(body, &doc) == nil {
			for _, t := range doc.Tags {
				merged[t] = true
			}
		}
	}
	tags := make([]string, 0, len(merged))
	for t := range merged {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	writeJSON(w, http.StatusOK, map[string][]string{"tags": tags})
}

func (rt *Router) handleAlerts(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"shards": rt.fanOut("/v1/alerts")})
}

func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"shards": rt.Status()})
}

// handleSLO fans /v1/slo out to the live shards and merges the answers into
// an exact cluster view: for every latency dimension the shards' quantile
// windows (the "hist" of each obs.Quantiles) add bucket by bucket, so the
// cluster quantiles and count equal those of one histogram that observed
// every shard's samples — a slow shard sets the cluster tail in proportion
// to its share of observations, and its own entry under "shards" shows it
// regardless. A shard dimension that does not decode (no hist, or one
// failing stats.Hist's validation) is left out of the merge but stays
// visible under "shards". Every merged dimension appears, an all-idle one
// with explicit zeros. The router's own POST /v1/samples wall-time window is
// merged into ingest_request_seconds, so the cluster's ingest SLO covers
// both hops. alert_latency_seconds rolls up as the maximum any shard reports.
func (rt *Router) handleSLO(w http.ResponseWriter, r *http.Request) {
	shards := rt.fanOut("/v1/slo")
	merged := map[string]*stats.Hist{"ingest_request_seconds": rt.ingestReq.Window()}
	var alertMax float64
	alertSeen := false
	for _, body := range shards {
		var doc map[string]json.RawMessage
		if json.Unmarshal(body, &doc) != nil {
			continue
		}
		for key, raw := range doc {
			if key == "alert_latency_seconds" {
				var v float64
				if json.Unmarshal(raw, &v) == nil && (!alertSeen || v > alertMax) {
					alertMax, alertSeen = v, true
				}
				continue
			}
			var q obs.Quantiles
			if json.Unmarshal(raw, &q) != nil || q.Hist == nil {
				continue
			}
			if m := merged[key]; m != nil {
				m.Merge(q.Hist)
			} else {
				merged[key] = q.Hist
			}
		}
	}
	cluster := make(map[string]any, len(merged)+1)
	for key, h := range merged {
		cluster[key] = obs.QuantilesOf(h)
	}
	if alertSeen {
		cluster["alert_latency_seconds"] = alertMax
	}
	writeJSON(w, http.StatusOK, map[string]any{"shards": shards, "cluster": cluster})
}

// handleTrace assembles one cross-process pipeline trace: the router's own
// spans plus every live shard's spans for the id, merged and sorted on the
// shared absolute-time axis (span start). The id is the 16-digit hex trace id
// returned by POST /v1/samples.
func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := obs.ParseTraceID(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad trace id: %w", err))
		return
	}
	var spans []obs.PipeSpan
	if rt.spans != nil {
		spans = rt.spans.Spans(id)
	}
	for _, body := range rt.fanOutRaw("/debug/pipespans?trace=" + obs.TraceIDString(id)) {
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			var sp obs.PipeSpan
			if json.Unmarshal(sc.Bytes(), &sp) == nil && sp.TraceID == id {
				spans = append(spans, sp)
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Service < spans[j].Service
	})
	writeJSON(w, http.StatusOK, map[string]any{
		"trace_id": obs.TraceIDString(id),
		"spans":    spans,
	})
}

// fanOutRaw issues one GET per non-ejected shard and returns each 200 body
// verbatim (no JSON requirement — pipespan exports are NDJSON). Failed shards
// are simply omitted: trace assembly is best-effort by design.
func (rt *Router) fanOutRaw(path string) map[string][]byte {
	out := make(map[string][]byte, len(rt.shards))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, s := range rt.shards {
		if s.State() == ShardEjected {
			continue
		}
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			resp, err := rt.client.Get(s.base + path)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(io.LimitReader(resp.Body, maxIngestBody))
			if err != nil || resp.StatusCode != http.StatusOK {
				return
			}
			mu.Lock()
			out[s.id] = body
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	return out
}

// handlePipeSpans exports the router's own span log as NDJSON, optionally
// filtered to one trace with ?trace=<hex id>.
func (rt *Router) handlePipeSpans(w http.ResponseWriter, r *http.Request) {
	var id uint64
	if q := r.URL.Query().Get("trace"); q != "" {
		var err error
		if id, err = obs.ParseTraceID(q); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad trace id: %w", err))
			return
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if rt.spans != nil {
		rt.spans.WriteNDJSON(w, id)
	}
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	if rt.closed.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if !rt.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no-healthy-shards"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
