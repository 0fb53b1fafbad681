package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"entityid"
	"entityid/internal/admit"
)

// TestReadyzTransitions drives /readyz through every announced status:
// 200 ready on a healthy hub, 503 with the degradation cause when the
// hub is read-only, 503 draining once shutdown starts.
func TestReadyzTransitions(t *testing.T) {
	srv := newServer()

	code, out := do(t, srv, "GET", "/readyz", "")
	if code != http.StatusOK || out["status"] != "ready" || out["hub"] != "ready" {
		t.Fatalf("healthy readyz = %d %v, want 200 ready", code, out)
	}

	since := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	srv.health = func() entityid.HubHealth {
		return entityid.HubHealth{State: entityid.HubDegraded, Cause: "write wal: no space left on device", Since: since, Probes: 3}
	}
	code, out = do(t, srv, "GET", "/readyz", "")
	if code != http.StatusServiceUnavailable || out["status"] != "degraded" {
		t.Fatalf("degraded readyz = %d %v, want 503 degraded", code, out)
	}
	if out["cause"] != "write wal: no space left on device" || out["since"] != "2026-08-08T12:00:00Z" || out["probes"] != float64(3) {
		t.Fatalf("degraded readyz body missing diagnostics: %v", out)
	}

	srv.health = func() entityid.HubHealth { return entityid.HubHealth{State: entityid.HubReady} }
	srv.draining.Store(true)
	code, out = do(t, srv, "GET", "/readyz", "")
	if code != http.StatusServiceUnavailable || out["status"] != "draining" {
		t.Fatalf("draining readyz = %d %v, want 503 draining", code, out)
	}
}

// unreadBody is a request body that fails the test when touched: what a
// shed request's body must be.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("a shed insert's body was read")
	return 0, io.EOF
}

// TestIngestShedding pins the admission-control contract on
// /v1/insert: 503 + Retry-After while draining or degraded (before
// the body is even read), 429 + Retry-After when the concurrency gate
// is full — never a hang, never a silent queue. A one-line body, which
// the handler would otherwise read whole, is shed the same way: before
// any byte of it is read.
func TestIngestShedding(t *testing.T) {
	srv := newServer()
	oneLine := func() *http.Request {
		req := httptest.NewRequest("POST", "/v1/insert", unreadBody{t})
		req.ContentLength = int64(len(`{"source":"a","tuple":["x"]}`))
		return req
	}

	srv.draining.Store(true)
	for _, req := range []*http.Request{httptest.NewRequest("POST", "/v1/insert", nil), oneLine()} {
		rw := httptest.NewRecorder()
		srv.ServeHTTP(rw, req)
		if rw.Code != http.StatusServiceUnavailable || rw.Header().Get("Retry-After") != "5" {
			t.Fatalf("draining insert = %d (Retry-After %q), want 503/5", rw.Code, rw.Header().Get("Retry-After"))
		}
	}
	srv.draining.Store(false)

	srv.health = func() entityid.HubHealth {
		return entityid.HubHealth{State: entityid.HubDegraded, Cause: "disk gone"}
	}
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, oneLine())
	if rw.Code != http.StatusServiceUnavailable || rw.Header().Get("Retry-After") != "5" {
		t.Fatalf("degraded one-line insert = %d (Retry-After %q), want 503/5", rw.Code, rw.Header().Get("Retry-After"))
	}
	rw = httptest.NewRecorder()
	srv.ServeHTTP(rw, httptest.NewRequest("POST", "/v1/insert", nil))
	if rw.Code != http.StatusServiceUnavailable || rw.Header().Get("Retry-After") != "5" {
		t.Fatalf("degraded insert = %d (Retry-After %q), want 503/5", rw.Code, rw.Header().Get("Retry-After"))
	}
	var body map[string]string
	if err := json.Unmarshal(rw.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("degraded insert body = %q, want a JSON error", rw.Body.String())
	}

	srv.health = func() entityid.HubHealth { return entityid.HubHealth{State: entityid.HubReady} }
	srv.gate = admit.New(1)
	if !srv.gate.TryAcquire() {
		t.Fatal("setup: could not occupy the only gate slot")
	}
	for _, req := range []*http.Request{httptest.NewRequest("POST", "/v1/insert", nil), oneLine()} {
		rw = httptest.NewRecorder()
		srv.ServeHTTP(rw, req)
		if rw.Code != http.StatusTooManyRequests || rw.Header().Get("Retry-After") != "1" {
			t.Fatalf("gate-full insert = %d (Retry-After %q), want 429/1", rw.Code, rw.Header().Get("Retry-After"))
		}
	}
	srv.gate.Release()

	// With the slot free again the request is admitted: it proceeds to
	// body parsing (400 on the empty body, not a shed status) and the
	// slot is returned.
	rw = httptest.NewRecorder()
	srv.ServeHTTP(rw, httptest.NewRequest("POST", "/v1/insert", nil))
	if rw.Code == http.StatusTooManyRequests || rw.Code == http.StatusServiceUnavailable {
		t.Fatalf("admitted insert still shed: %d", rw.Code)
	}
	if srv.gate.InFlight() != 0 {
		t.Fatalf("gate slot leaked: %d in flight", srv.gate.InFlight())
	}
}

// TestHubErrorMapping checks the mutation-failure mapping: typed
// degraded/poisoned errors answer 503 + Retry-After regardless of the
// handler's fallback status, everything else keeps the fallback.
func TestHubErrorMapping(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{fmt.Errorf("hub: insert: %w", entityid.ErrHubDegraded), http.StatusServiceUnavailable},
		{fmt.Errorf("hub: insert: %w", entityid.ErrHubPoisoned), http.StatusServiceUnavailable},
		{errors.New("duplicate source"), http.StatusConflict},
	} {
		rw := httptest.NewRecorder()
		httpHubError(rw, http.StatusConflict, tc.err)
		if rw.Code != tc.want {
			t.Fatalf("httpHubError(%v) = %d, want %d", tc.err, rw.Code, tc.want)
		}
		if tc.want == http.StatusServiceUnavailable && rw.Header().Get("Retry-After") == "" {
			t.Fatalf("httpHubError(%v) missing Retry-After", tc.err)
		}
	}
}

// TestPanicRecovery checks a panicking handler answers a clean JSON
// 500 instead of killing the connection, and that the recovery
// middleware leaves http.ErrAbortHandler's contract alone.
func TestPanicRecovery(t *testing.T) {
	srv := newServer()
	srv.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	srv.mux.HandleFunc("GET /abort", func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	})

	code, out := do(t, srv, "GET", "/boom", "")
	if code != http.StatusInternalServerError || out["error"] != "internal server error" {
		t.Fatalf("panic route = %d %v, want JSON 500", code, out)
	}

	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Fatal("ErrAbortHandler was swallowed by the recovery middleware")
		}
	}()
	srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/abort", nil))
	t.Fatal("ErrAbortHandler did not propagate")
}

// lateHeaders counts the status lines a handler tries to send after its
// body has begun.
type lateHeaders struct {
	*httptest.ResponseRecorder
	wrote bool
	late  int
}

func (c *lateHeaders) Write(b []byte) (int, error) {
	c.wrote = true
	return c.ResponseRecorder.Write(b)
}

func (c *lateHeaders) WriteHeader(code int) {
	if c.wrote {
		c.late++
	}
	c.ResponseRecorder.WriteHeader(code)
}

// TestStorageFaultOnReadIs500: a read that fails because the store could
// not page a record in is the server's fault, not the client's. On the
// disk store with a one-entry hot tier every cluster record is cold; with
// the spill file truncated underneath it, /v1/cluster on such a record
// answers 500 (not 404), and /v1/clusters — whose 200 and first lines,
// the record-less singletons, are already out when the walk reaches it —
// ends with one terminal line instead of a second status and an error
// object spliced into the stream. The client's own mistakes keep their
// 4xx on the same hub.
func TestStorageFaultOnReadIs500(t *testing.T) {
	dir := t.TempDir()
	h, err := entityid.OpenHub(dir, entityid.WithStore("disk"), entityid.WithStoreBudgets(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	srv := newServerFor(h)
	srv.logf = func(string, ...any) {}
	for _, name := range []string{"a", "b"} {
		if code, out := do(t, srv, "POST", "/v1/sources", `{"name":"`+name+`","attrs":[{"name":"id"},{"name":"name"}],"key":["id"]}`); code != 201 {
			t.Fatalf("source %s: %d %v", name, code, out)
		}
	}
	if code, out := do(t, srv, "POST", "/v1/links", `{"left":"a","right":"b","extkey":["name"],"attrs":[
		{"name":"id_a","left":"id"},{"name":"id_b","right":"id"},{"name":"name","left":"name","right":"name"}]}`); code != 201 {
		t.Fatalf("link: %d %v", code, out)
	}
	// a0 and a1 stay singletons (no record to page in); a2–a4 each match a b.
	_, acks := ndjson(t, srv, "POST", "/v1/insert", strings.Join([]string{
		`{"source":"a","tuple":["a0","alone0"]}`, `{"source":"a","tuple":["a1","alone1"]}`,
		`{"source":"a","tuple":["a2","n2"]}`, `{"source":"b","tuple":["b2","n2"]}`,
		`{"source":"a","tuple":["a3","n3"]}`, `{"source":"b","tuple":["b3","n3"]}`,
		`{"source":"a","tuple":["a4","n4"]}`, `{"source":"b","tuple":["b4","n4"]}`,
	}, "\n"))
	for i, a := range acks {
		if a["ok"] != true {
			t.Fatalf("insert %d: %v", i, a)
		}
	}
	if st := h.StoreInfo(); st.Clusters.ColdRecords != 3 {
		t.Fatalf("fixture: %d cold cluster records, want 3 (%+v)", st.Clusters.ColdRecords, st.Clusters)
	}
	if code, out := do(t, srv, "GET", "/v1/cluster?source=a&key=a3", ""); code != 200 || len(out["members"].([]any)) != 2 {
		t.Fatalf("healthy cold read: %d %v", code, out)
	}
	if err := os.Truncate(filepath.Join(dir, "storetier", "clusters.spill"), 0); err != nil {
		t.Fatal(err)
	}

	code, out := do(t, srv, "GET", "/v1/cluster?source=a&key=a2", "")
	if code != http.StatusInternalServerError || out["error"] == nil {
		t.Errorf("point read of a record the store cannot page in: %d %v, want 500", code, out)
	}
	rw := &lateHeaders{ResponseRecorder: httptest.NewRecorder()}
	srv.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/clusters", nil))
	lines := strings.Split(strings.TrimSpace(rw.Body.String()), "\n")
	if rw.Code != 200 || rw.late != 0 || len(lines) != 3 {
		t.Fatalf("scan: status %d, %d more after the body began, body %q; want one 200, two clusters and a terminal line", rw.Code, rw.late, rw.Body.String())
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("scan line %d is not one JSON object: %q", i, line)
		}
		if terminal := m["terminal"] == true && m["error"] != nil; terminal != (i == 2) {
			t.Errorf("scan line %d: %q", i, line)
		}
	}
	// A walk that fails before its first line still has a status to give.
	if code, out := do(t, srv, "GET", "/v1/clusters?cursor=a/1", ""); code != http.StatusInternalServerError {
		t.Errorf("scan failing at its first record: %d %v, want 500", code, out)
	}
	for path, want := range map[string]int{
		"/v1/cluster?source=a&key=nope": http.StatusNotFound,
		"/v1/cluster?source=zz&key=a0":  http.StatusNotFound,
		"/v1/clusters?cursor=nope":      http.StatusBadRequest,
		"/v1/clusters?cursor=zz/0":      http.StatusBadRequest,
		"/v1/cluster?source=a&key=a0":   http.StatusOK, // a singleton has no record to lose
	} {
		if code, out := do(t, srv, "GET", path, ""); code != want {
			t.Errorf("GET %s: %d %v, want %d", path, code, out, want)
		}
	}
}
