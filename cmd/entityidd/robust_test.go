package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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
