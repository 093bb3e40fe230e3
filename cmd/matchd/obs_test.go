package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mdmatch/internal/obs"
)

// obsServer builds an instrumented durable matchd and wraps its routes
// in the same middleware main uses, so requests here exercise exactly
// the production handler chain.
func obsServer(t *testing.T, logBuf *bytes.Buffer) (*server, *httptest.Server, *obs.Registry) {
	t.Helper()
	cfg := testConfig()
	cfg.dataDir = t.TempDir()
	cfg.reg = obs.NewRegistry()
	if logBuf != nil {
		cfg.logger = slog.New(slog.NewJSONHandler(logBuf, nil))
	}
	srv, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.close)
	mux := srv.routes()
	httpm := obs.NewHTTPMetrics(cfg.reg, "matchd")
	routeOf := func(r *http.Request) string { _, p := mux.Handler(r); return p }
	ts := httptest.NewServer(httpm.Middleware(cfg.logger, routeOf, mux))
	t.Cleanup(ts.Close)
	return srv, ts, cfg.reg
}

// TestMetricsConformance is the end-to-end scrape check: drive real
// traffic through every layer (match, insert, snapshot), scrape
// GET /metrics, and validate the exposition with the strict conformance
// parser. Families from all four instrumented layers must be present
// and consistent with the traffic.
func TestMetricsConformance(t *testing.T) {
	var logBuf bytes.Buffer
	_, ts, _ := obsServer(t, &logBuf)

	// Traffic: one insert (chase + WAL append), one match, one snapshot.
	rec := map[string]string{
		"cno": "4000123412341234", "ssn": "123-45-6789",
		"fn": "Augusta", "ln": "Byron", "street": "12 St James Square",
		"city": "London", "county": "Westminster", "zip": "SW1Y",
		"tel": "555-0100", "email": "ada@example.org",
		"gender": "F", "dob": "1815-12-10", "type": "visa",
	}
	if status, out := doJSON(t, ts, http.MethodPost, "/records", map[string]any{"record": rec}); status != http.StatusOK {
		t.Fatalf("POST /records = %d (%s)", status, out["error"])
	}
	query := map[string]string{
		"cno": "4000123412341234", "fn": "Augusta", "ln": "Byron",
		"street": "12 St James Square", "city": "London",
		"county": "Westminster", "zip": "SW1Y", "phn": "555-0100",
		"email": "ada@example.org", "gender": "F", "dob": "1815-12-10",
	}
	if status, _ := doJSON(t, ts, http.MethodPost, "/match", map[string]any{"record": query}); status != http.StatusOK {
		t.Fatalf("POST /match = %d", status)
	}
	if status, _ := doJSON(t, ts, http.MethodPost, "/snapshot", nil); status != http.StatusOK {
		t.Fatalf("POST /snapshot = %d", status)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("conformance: %v", err)
	}
	byName := map[string]obs.Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	sample := func(name string) float64 {
		t.Helper()
		f, ok := byName[name]
		if !ok || len(f.Samples) == 0 {
			t.Fatalf("family %s missing from the exposition", name)
		}
		return f.Samples[0].Value
	}

	// One family per instrumented layer, plus the HTTP surface.
	if got := sample("mdmatch_engine_queries_total"); got < 1 {
		t.Fatalf("engine queries = %v", got)
	}
	if got := sample("mdmatch_stream_inserts_total"); got < 1 {
		t.Fatalf("stream inserts = %v", got)
	}
	if got := sample("mdmatch_store_appends_total"); got < 1 {
		t.Fatalf("store appends = %v", got)
	}
	if got := sample("mdmatch_store_snapshot_lsn"); got < 1 {
		t.Fatalf("snapshot lsn = %v", got)
	}
	if got := sample("mdmatch_store_snapshot_inflight"); got != 0 {
		t.Fatalf("snapshot inflight = %v after the snapshot completed", got)
	}
	if got := sample("mdmatch_runtime_heap_alloc_bytes"); got <= 0 {
		t.Fatalf("runtime heap alloc = %v", got)
	}
	// Identity families: build_info is a constant-1 gauge whose labels
	// carry the toolchain and VCS revision; process start time anchors
	// uptime math in dashboards.
	bi, ok := byName["mdmatch_build_info"]
	if !ok || len(bi.Samples) == 0 {
		t.Fatal("mdmatch_build_info missing from the exposition")
	}
	if bi.Samples[0].Value != 1 {
		t.Fatalf("build_info value = %v, want 1", bi.Samples[0].Value)
	}
	if bi.Samples[0].Labels["go_version"] == "" {
		t.Fatalf("build_info lacks go_version: %+v", bi.Samples[0].Labels)
	}
	if _, ok := bi.Samples[0].Labels["revision"]; !ok {
		t.Fatalf("build_info lacks revision: %+v", bi.Samples[0].Labels)
	}
	if got := sample("mdmatch_process_start_time_seconds"); got <= 0 {
		t.Fatalf("process start time = %v", got)
	}
	if got := sample("mdmatch_engine_indexed_records"); got < 150 {
		t.Fatalf("indexed records = %v (corpus is k=150)", got)
	}
	// Per-rule counters carry the rule label keyed by Σ index.
	ruleFam, ok := byName["mdmatch_stream_rule_examined_total"]
	if !ok || len(ruleFam.Samples) == 0 {
		t.Fatal("per-rule family missing")
	}
	if ruleFam.Samples[0].Labels["rule"] == "" {
		t.Fatalf("per-rule sample lacks the rule label: %+v", ruleFam.Samples[0])
	}
	// Speculation outcomes are exported at any chase worker count.
	outcomes := map[string]bool{}
	for _, s := range byName["mdmatch_stream_speculation_pairs_total"].Samples {
		outcomes[s.Labels["outcome"]] = true
	}
	for _, o := range []string{"speculated", "committed", "invalidated", "not_evaluated"} {
		if !outcomes[o] {
			t.Fatalf("speculation family lacks outcome %q: %v", o, outcomes)
		}
	}
	// Per-structure memory gauges: the stream's verdict caches hold
	// the initial load's verdicts.
	structures := map[string]float64{}
	for _, s := range byName["mdmatch_memory_bytes"].Samples {
		structures[s.Labels["structure"]] = s.Value
	}
	if got := structures["stream_verdict_cache"]; got <= 0 {
		t.Fatalf("mdmatch_memory_bytes{structure=\"stream_verdict_cache\"} = %v (samples %v)", got, structures)
	}
	// HTTP middleware families, fed by the requests above.
	var reqTotal float64
	reqFam := byName["matchd_http_requests_total"]
	routes := map[string]bool{}
	for _, s := range reqFam.Samples {
		reqTotal += s.Value
		routes[s.Labels["route"]] = true
	}
	if reqTotal < 3 {
		t.Fatalf("http requests total = %v", reqTotal)
	}
	if !routes["POST /match"] || !routes["POST /records"] {
		t.Fatalf("routes seen = %v", routes)
	}
	// Histograms from the push-side hooks observed the traffic.
	for _, name := range []string{
		"mdmatch_engine_match_duration_seconds",
		"mdmatch_stream_insert_duration_seconds",
		"mdmatch_store_append_duration_seconds",
		"matchd_http_request_duration_seconds",
	} {
		f, ok := byName[name]
		if !ok {
			t.Fatalf("histogram %s missing", name)
		}
		var count float64
		for _, s := range f.Samples {
			if strings.HasSuffix(s.Name, "_count") {
				count += s.Value
			}
		}
		if count < 1 {
			t.Fatalf("histogram %s observed nothing", name)
		}
	}

	// Each request logged one structured line with its request id.
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	sawRequest := 0
	for _, line := range lines {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			continue
		}
		if entry["msg"] == "request" {
			sawRequest++
			if entry["request_id"] == "" || entry["route"] == "" {
				t.Fatalf("log entry missing fields: %v", entry)
			}
		}
	}
	if sawRequest < 4 {
		t.Fatalf("structured request lines = %d, want >= 4", sawRequest)
	}
}

// TestReadiness pins the liveness/readiness split: /healthz is up from
// the first instant, data endpoints and /readyz gate on build
// completion, and /readyz reports replay progress fields.
func TestReadiness(t *testing.T) {
	// Before build: the shell serves health but 503s data requests.
	shell := newServer(testConfig())
	ts := httptest.NewServer(shell.routes())
	defer ts.Close()
	if status, _ := doJSON(t, ts, http.MethodGet, "/healthz", nil); status != http.StatusOK {
		t.Fatalf("/healthz before build = %d", status)
	}
	status, out := doJSON(t, ts, http.MethodGet, "/readyz", nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before build = %d", status)
	}
	var ready bool
	if err := json.Unmarshal(out["ready"], &ready); err != nil || ready {
		t.Fatalf("readyz body before build: %v", out)
	}
	if status, _ := doJSON(t, ts, http.MethodGet, "/stats", nil); status != http.StatusServiceUnavailable {
		t.Fatalf("/stats before build = %d", status)
	}
	if status, _ := doJSON(t, ts, http.MethodPost, "/match", map[string]any{"values": []string{"x"}}); status != http.StatusServiceUnavailable {
		t.Fatalf("/match before build = %d", status)
	}

	// After build: ready, and a durable restart reports replay progress.
	dir := t.TempDir()
	cfg := testConfig()
	cfg.dataDir = dir
	srv, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv.routes())
	status, out = doJSON(t, ts2, http.MethodGet, "/readyz", nil)
	if status != http.StatusOK {
		t.Fatalf("/readyz after build = %d", status)
	}
	rec := map[string]string{"fn": "Solo", "ln": "Record", "zip": "00001"}
	if status, out := doJSON(t, ts2, http.MethodPost, "/records", map[string]any{"record": rec}); status != http.StatusOK {
		t.Fatalf("POST /records = %d (%s)", status, out["error"])
	}
	ts2.Close()
	srv.close()

	// Restart over the same directory: recovery replays the WAL (no
	// snapshot was taken, so the insert above replays) and /readyz must
	// expose how far it got.
	srv2, err := buildServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.close()
	ts3 := httptest.NewServer(srv2.routes())
	defer ts3.Close()
	status, out = doJSON(t, ts3, http.MethodGet, "/readyz", nil)
	if status != http.StatusOK {
		t.Fatalf("/readyz after recovery = %d", status)
	}
	var applied, target float64
	if err := json.Unmarshal(out["replay_applied"], &applied); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out["replay_target"], &target); err != nil {
		t.Fatal(err)
	}
	if target < 1 || applied != target {
		t.Fatalf("replay progress = %v/%v, want complete and >= 1", applied, target)
	}
}
