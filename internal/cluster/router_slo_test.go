package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/stats"
)

// sloShard serves a fixed /v1/slo document and accepts forwarded ingest.
func sloShard(t *testing.T, doc string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/slo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, doc)
	})
	mux.HandleFunc("POST /v1/samples", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"accepted":1,"dropped":0}`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func sloRouter(t *testing.T, shards ...*httptest.Server) *Router {
	t.Helper()
	cfgs := make([]ShardConfig, len(shards))
	for i, s := range shards {
		cfgs[i] = ShardConfig{ID: fmt.Sprintf("s%d", i+1), URL: s.URL}
	}
	rt, err := New(Config{Shards: cfgs, HealthInterval: Duration(-1)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close(context.Background()) })
	return rt
}

func clusterSLO(t *testing.T, rt *Router) map[string]json.RawMessage {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.Routes().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/slo", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/slo status %d", rec.Code)
	}
	var doc struct {
		Cluster map[string]json.RawMessage `json:"cluster"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Cluster
}

func dim(t *testing.T, doc map[string]json.RawMessage, key string) obs.Quantiles {
	t.Helper()
	raw, ok := doc[key]
	if !ok {
		t.Fatalf("cluster rollup missing %s (have %v)", key, keysOf(doc))
	}
	var q obs.Quantiles
	if err := json.Unmarshal(raw, &q); err != nil {
		t.Fatalf("%s does not parse: %v", key, err)
	}
	return q
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// spread returns n observations evenly spaced over [lo, hi].
func spread(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(max(n-1, 1))
	}
	return out
}

// window records the observations into one stats.Hist.
func window(obsSets ...[]float64) *stats.Hist {
	var h stats.Hist
	for _, set := range obsSets {
		for _, v := range set {
			h.Record(v)
		}
	}
	return &h
}

// sloBody renders a shard /v1/slo document the way liond serves it: each
// *stats.Hist value becomes one obs.Quantiles dimension, anything else is
// encoded as given.
func sloBody(t *testing.T, doc map[string]any) string {
	t.Helper()
	out := make(map[string]any, len(doc))
	for k, v := range doc {
		if h, ok := v.(*stats.Hist); ok {
			v = obs.QuantilesOf(h)
		}
		out[k] = v
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sameAs checks a cluster dimension against the quantiles of one histogram
// that recorded every shard's observations itself.
func sameAs(t *testing.T, key string, got obs.Quantiles, all *stats.Hist) {
	t.Helper()
	want := obs.QuantilesOf(all)
	if got.P50 != want.P50 || got.P95 != want.P95 || got.P99 != want.P99 || got.Count != want.Count {
		t.Errorf("%s = p50 %g p95 %g p99 %g count %d, want the single-histogram %g %g %g %d",
			key, got.P50, got.P95, got.P99, got.Count, want.P50, want.P95, want.P99, want.Count)
	}
	if got.Hist == nil || got.Hist.Count() != all.Count() || got.Hist.Max() != all.Max() || got.Hist.Min() != all.Min() {
		t.Errorf("%s merged hist %+v disagrees with the single histogram", key, got.Hist)
	}
}

// TestRouterSLORollupShardAsymmetry: one fast busy shard and one slow shard.
// The merge is exact: counts sum, and every cluster quantile is that of one
// histogram holding both shards' observations. So a slow shard with 2% of a
// dimension's observations sets its cluster p99, while one with 0.04% moves
// no quantile yet still shows in the merged hist's max and in its own
// shards entry.
func TestRouterSLORollupShardAsymmetry(t *testing.T) {
	fastStale, slowStale := spread(100000, 0.001, 0.005), spread(37, 0.5, 4.0)
	fastQueue, slowQueue := spread(4900, 0.0001, 0.0004), spread(100, 0.1, 0.9)
	fastBusy := sloShard(t, sloBody(t, map[string]any{
		"staleness_seconds":  window(fastStale),
		"queue_wait_seconds": window(fastQueue),
	}))
	slow := sloShard(t, sloBody(t, map[string]any{
		"staleness_seconds":  window(slowStale),
		"queue_wait_seconds": window(slowQueue),
	}))
	rt := sloRouter(t, fastBusy, slow)
	doc := clusterSLO(t, rt)

	st := dim(t, doc, "staleness_seconds")
	sameAs(t, "staleness_seconds", st, window(fastStale, slowStale))
	if st.Count != 100037 {
		t.Errorf("staleness count %d, want the exact sum 100037", st.Count)
	}
	if st.P99 > 0.006 || st.Hist.Max() != 4.0 {
		t.Errorf("staleness p99 %g max %g: a 0.04%% slow shard must not set the p99 but must set the max",
			st.P99, st.Hist.Max())
	}
	if s2 := shardDim(t, rt, "s2", "staleness_seconds"); s2.P99 < 3.5 {
		t.Errorf("slow shard's own staleness p99 = %g, want its ~4 s tail", s2.P99)
	}

	qw := dim(t, doc, "queue_wait_seconds")
	sameAs(t, "queue_wait_seconds", qw, window(fastQueue, slowQueue))
	if qw.Count != 5000 || qw.P99 < 0.1 {
		t.Errorf("queue_wait %+v: a 2%% slow shard must set the cluster p99", qw)
	}
}

// shardDim reads one dimension of one shard's entry in the router's /v1/slo.
func shardDim(t *testing.T, rt *Router, shard, key string) obs.Quantiles {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.Routes().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/slo", nil))
	var doc struct {
		Shards map[string]map[string]json.RawMessage `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return dim(t, doc.Shards[shard], key)
}

// TestRouterSLORollupExplicitZeroCounts: shards reporting a dimension with an
// empty window keep the dimension visible in the rollup as an explicit zero,
// and an idle shard's empty window leaves a busy shard's quantiles exact.
func TestRouterSLORollupExplicitZeroCounts(t *testing.T) {
	busyStale := spread(500, 0.2, 0.8)
	idle := sloShard(t, sloBody(t, map[string]any{
		"staleness_seconds":     window(),
		"solve_latency_seconds": window(),
	}))
	busy := sloShard(t, sloBody(t, map[string]any{
		"staleness_seconds":     window(busyStale),
		"solve_latency_seconds": window(),
	}))
	rt := sloRouter(t, idle, busy)
	doc := clusterSLO(t, rt)

	sameAs(t, "staleness_seconds", dim(t, doc, "staleness_seconds"), window(busyStale))
	// A dimension every shard is idle on still appears, explicitly zero.
	sl := dim(t, doc, "solve_latency_seconds")
	if sl.Count != 0 || sl.P50 != 0 || sl.P95 != 0 || sl.P99 != 0 || sl.Hist == nil || sl.Hist.Count() != 0 {
		t.Errorf("all-idle dimension = %+v, want explicit zeros", sl)
	}
}

// TestRouterSLOOwnIngestRequest: the router merges its own POST /v1/samples
// wall-time window into the cluster's ingest_request_seconds — present as an
// explicit zero before any ingest, and afterwards the exact merge of the
// shard's window and the router's.
func TestRouterSLOOwnIngestRequest(t *testing.T) {
	shardIngest := spread(10, 1.5, 2.0)
	shard := sloShard(t, sloBody(t, map[string]any{"ingest_request_seconds": window(shardIngest)}))
	idle := sloShard(t, `{}`)

	if q := dim(t, clusterSLO(t, sloRouter(t, idle)), "ingest_request_seconds"); q.Count != 0 || q.Hist == nil {
		t.Fatalf("pre-ingest ingest_request_seconds = %+v, want an explicit zero", q)
	}

	rt := sloRouter(t, shard)
	for i := 0; i < 5; i++ {
		body := strings.NewReader(`{"tag":"T1","time_s":1,"x_m":0,"y_m":0,"z_m":0,"phase_rad":1}`)
		req := httptest.NewRequest("POST", "/v1/samples", body)
		rec := httptest.NewRecorder()
		rt.Routes().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
		}
	}
	q := dim(t, clusterSLO(t, rt), "ingest_request_seconds")
	if q.Count != 15 {
		t.Fatalf("ingest_request_seconds count %d after 5 router posts over a 10-request shard window", q.Count)
	}
	own := rt.ingestReq.Window()
	if own.Count() != 5 {
		t.Fatalf("router window count %d, want 5", own.Count())
	}
	own.Merge(window(shardIngest))
	sameAs(t, "ingest_request_seconds", q, own)
}

// TestRouterSLOMalformedShardHist: a shard serving a hist that fails
// validation, or none at all, is left out of the cluster merge, stays
// visible under "shards", and does not break the endpoint.
func TestRouterSLOMalformedShardHist(t *testing.T) {
	good := spread(20, 0.01, 0.02)
	healthy := sloShard(t, sloBody(t, map[string]any{"staleness_seconds": window(good)}))
	// Bucket counts (1) disagree with count (5).
	broken := sloShard(t, `{"staleness_seconds":{"p50":9,"p95":9,"p99":9,"count":5,`+
		`"hist":{"count":5,"sum":45,"min":9,"max":9,"buckets":[[700,1]]}}}`)
	// The pre-hist document shape carries no window to merge.
	histless := sloShard(t, `{"staleness_seconds":{"p50":9,"p95":9,"p99":9,"count":5}}`)
	rt := sloRouter(t, healthy, broken, histless)

	rec := httptest.NewRecorder()
	rt.Routes().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/slo", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/slo status %d", rec.Code)
	}
	var doc struct {
		Shards  map[string]json.RawMessage `json:"shards"`
		Cluster map[string]json.RawMessage `json:"cluster"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	sameAs(t, "staleness_seconds", dim(t, doc.Cluster, "staleness_seconds"), window(good))
	for _, id := range []string{"s1", "s2", "s3"} {
		if !strings.Contains(string(doc.Shards[id]), "staleness_seconds") {
			t.Errorf("shard %s missing from shards: %s", id, doc.Shards[id])
		}
	}
}
