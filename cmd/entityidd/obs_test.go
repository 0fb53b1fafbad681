package main

// Observability-plane tests for the front-end: /metrics conformance
// and core families, request-ID plumbing (honored, generated, echoed
// in error bodies), /readyz uptime and snapshot age, the slow-op
// endpoint, and the debug listener (pprof opt-in only, no goroutines
// left behind).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"entityid"
)

// Prometheus text-format line grammar, mirrored from the obs package's
// conformance checker (test helpers are not importable across
// packages): HELP/TYPE comments and samples with optional labels.
var (
	promHelpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*")*\})? (\+Inf|-?[0-9].*)$`)
)

// checkPromText validates every line of an exposition and returns the
// TYPE-announced families.
func checkPromText(t *testing.T, text string) map[string]string {
	t.Helper()
	if text == "" || !strings.HasSuffix(text, "\n") {
		t.Fatalf("exposition must end with a newline")
	}
	types := map[string]string{}
	for ln, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !promHelpRe.MatchString(line) {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			m := promTypeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			types[m[1]] = m[2]
		default:
			if !promSampleRe.MatchString(line) {
				t.Fatalf("line %d: malformed sample: %q", ln+1, line)
			}
		}
	}
	return types
}

func TestMetricsEndpoint(t *testing.T) {
	srv := newServer()
	srv.logf = t.Logf
	// Drive enough traffic that the core families have samples.
	code, _ := do(t, srv, "POST", "/v1/sources",
		`{"name":"ma","attrs":[{"name":"name"},{"name":"phone"}],"key":["name"]}`)
	if code != 201 {
		t.Fatalf("source: %d", code)
	}
	ndjson(t, srv, "POST", "/v1/insert", `{"source":"ma","tuple":["x","1"]}`)
	do(t, srv, "GET", "/v1/stats", "")

	req := httptest.NewRequest("GET", "/metrics", nil)
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, req)
	if rw.Code != 200 {
		t.Fatalf("/metrics: %d", rw.Code)
	}
	if ct := rw.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	types := checkPromText(t, rw.Body.String())
	for family, typ := range map[string]string{
		"http_requests_total":       "counter",
		"http_request_seconds":      "histogram",
		"http_inflight":             "gauge",
		"process_uptime_seconds":    "gauge",
		"hub_ingest_total":          "counter",
		"hub_ingest_commit_seconds": "histogram",
		"hub_ingest_stage_seconds":  "histogram",
		"hub_health_state":          "gauge",
		"admit_inflight":            "gauge",
		"admit_admitted_total":      "counter",
		"admit_shed_total":          "counter",
		"wal_append_total":          "counter",
		"wal_fsync_seconds":         "histogram",
	} {
		if types[family] != typ {
			t.Errorf("family %s: type %q, want %q", family, types[family], typ)
		}
	}
	if !strings.Contains(rw.Body.String(), `http_requests_total{route="POST /v1/sources",class="2xx"}`) {
		t.Error("per-route sample missing")
	}
}

func TestRequestIDGenerated(t *testing.T) {
	srv := newServer()
	srv.logf = t.Logf
	req := httptest.NewRequest("GET", "/v1/cluster", nil) // missing params -> 400
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, req)
	rid := rw.Header().Get("X-Request-ID")
	if len(rid) != 16 {
		t.Fatalf("generated request ID %q, want 16 hex chars", rid)
	}
	var body map[string]string
	if err := json.Unmarshal(rw.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["request_id"] != rid {
		t.Fatalf("error body request_id %q != header %q", body["request_id"], rid)
	}
	if body["error"] == "" {
		t.Fatal("error body lost its error field")
	}
}

func TestRequestIDHonored(t *testing.T) {
	srv := newServer()
	var logged []string
	srv.logf = func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	req := httptest.NewRequest("GET", "/v1/stats", nil)
	req.Header.Set("X-Request-ID", "upstream-trace-7")
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, req)
	if got := rw.Header().Get("X-Request-ID"); got != "upstream-trace-7" {
		t.Fatalf("incoming request ID not honored: %q", got)
	}
	found := false
	for _, line := range logged {
		if strings.Contains(line, "request_id=upstream-trace-7") && strings.Contains(line, "status=200") {
			found = true
		}
	}
	if !found {
		t.Fatalf("access log missing the honored request ID: %v", logged)
	}
}

// TestAccessLogCannotBeForged: the request path and X-Request-ID are the
// client's bytes, and one request must stay one access-log line — a
// %0A in the path is logged quoted, and an ID that is not a short plain
// token (oversized, spaced, carrying a newline) is replaced by a
// generated one everywhere it would have been echoed: the log, the
// response header and the error body.
func TestAccessLogCannotBeForged(t *testing.T) {
	srv := newServer()
	var logged []string
	srv.logf = func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	forged := "entityidd: access method=GET path=/v1/stats status=200"
	req := httptest.NewRequest("GET", "/nowhere%0A"+strings.ReplaceAll(forged, " ", "%20"), nil)
	srv.ServeHTTP(httptest.NewRecorder(), req)
	if len(logged) != 1 || strings.Contains(logged[0], "\n") || !strings.Contains(logged[0], `path="/nowhere\nentityidd: access`) {
		t.Fatalf("a newline in the path must stay inside one quoted field: %q", logged)
	}

	for name, id := range map[string]string{
		"oversized": strings.Repeat("a", 65),
		"spaced":    "abc status=500",
		"newline":   "abc\n" + forged,
		"quoted":    `abc"def`,
	} {
		logged = nil
		req := httptest.NewRequest("GET", "/v1/cluster", nil) // missing params -> 400 with request_id
		req.Header["X-Request-Id"] = []string{id}
		rw := httptest.NewRecorder()
		srv.ServeHTTP(rw, req)
		rid := rw.Header().Get("X-Request-ID")
		if rid == id || len(rid) != 16 {
			t.Fatalf("%s request ID %q echoed as %q, want a generated one", name, id, rid)
		}
		var body map[string]string
		if err := json.Unmarshal(rw.Body.Bytes(), &body); err != nil || body["request_id"] != rid {
			t.Fatalf("%s: error body %q, want request_id %q", name, rw.Body.String(), rid)
		}
		if len(logged) != 1 || strings.Contains(logged[0], "\n") || !strings.HasSuffix(logged[0], "request_id="+rid) {
			t.Fatalf("%s: access log %q", name, logged)
		}
	}
	// The longest and widest ID still honored.
	id := strings.Repeat("aZ9._:-x", 8)
	req = httptest.NewRequest("GET", "/v1/stats", nil)
	req.Header.Set("X-Request-ID", id)
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, req)
	if got := rw.Header().Get("X-Request-ID"); got != id {
		t.Fatalf("a 64-byte token ID was not honored: %q", got)
	}
}

func TestPanicRecoveryLogsRequestID(t *testing.T) {
	srv := newServer()
	var logged []string
	srv.logf = func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	srv.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	req := httptest.NewRequest("GET", "/boom", nil)
	req.Header.Set("X-Request-ID", "boom-42")
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, req)
	if rw.Code != 500 {
		t.Fatalf("panic answered %d, want 500", rw.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rw.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["request_id"] != "boom-42" {
		t.Fatalf("panic error body request_id %q", body["request_id"])
	}
	found := false
	for _, line := range logged {
		if strings.Contains(line, "panic") && strings.Contains(line, "request_id=boom-42") {
			found = true
		}
	}
	if !found {
		t.Fatalf("panic log missing request ID: %v", logged)
	}
}

func TestReadyzUptimeAndSnapshotAge(t *testing.T) {
	srv := newServer()
	srv.logf = t.Logf
	code, body := do(t, srv, "GET", "/readyz", "")
	if code != 200 {
		t.Fatalf("/readyz: %d %v", code, body)
	}
	up, ok := body["uptime_seconds"].(float64)
	if !ok || up < 0 {
		t.Fatalf("uptime_seconds = %v", body["uptime_seconds"])
	}
	if _, present := body["last_snapshot_age_seconds"]; present {
		t.Fatal("memory-only hub reported a snapshot age")
	}
	// With a snapshot on record, its age and watermark appear.
	srv.lastSnapshot = func() entityid.HubSnapshotStats {
		return entityid.HubSnapshotStats{Watermark: 42, Taken: time.Now().Add(-90 * time.Second)}
	}
	_, body = do(t, srv, "GET", "/readyz", "")
	age, ok := body["last_snapshot_age_seconds"].(float64)
	if !ok || age < 89 || age > 200 {
		t.Fatalf("last_snapshot_age_seconds = %v", body["last_snapshot_age_seconds"])
	}
	if wm := body["last_snapshot_watermark"].(float64); wm != 42 {
		t.Fatalf("last_snapshot_watermark = %v", wm)
	}
}

func TestSlowOpEndpoint(t *testing.T) {
	srv := newServer()
	srv.logf = t.Logf
	code, body := do(t, srv, "GET", "/debug/slow", "")
	if code != 200 {
		t.Fatalf("/debug/slow: %d", code)
	}
	if _, ok := body["threshold_ns"].(float64); !ok {
		t.Fatalf("threshold_ns missing: %v", body)
	}
	if _, ok := body["recorded"].(float64); !ok {
		t.Fatalf("recorded missing: %v", body)
	}
}

// TestPprofNotOnMainPort pins the security posture: profiling handlers
// are only reachable through the opt-in debug listener.
func TestPprofNotOnMainPort(t *testing.T) {
	srv := newServer()
	srv.logf = t.Logf
	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, req)
	if rw.Code != 404 {
		t.Fatalf("/debug/pprof/ on the main mux answered %d, want 404", rw.Code)
	}
}

// TestDebugListener starts the real debug server, scrapes it over TCP,
// and verifies shutdown leaves no goroutines behind.
func TestDebugListener(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := renderHub(t)
	dbg, addr, err := startDebugServer("127.0.0.1:0", srv.hub.CheckInvariants)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	for _, path := range []string{"/metrics", "/debug/slow", "/debug/check", "/debug/pprof/"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, b)
		}
		if path == "/metrics" {
			checkPromText(t, string(b))
		}
	}
	// Drop the client side's keep-alive conns first: their handler
	// goroutines belong to the client pool, not the debug server.
	http.DefaultClient.CloseIdleConnections()
	if err := dbg.Close(); err != nil {
		t.Fatal(err)
	}
	// The accept loop and any keep-alive conns must wind down.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines grew after debug listener shutdown: %d -> %d", before, runtime.NumGoroutine())
}
