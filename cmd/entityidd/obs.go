// HTTP-layer observability: per-route request metrics, structured
// access logging with request IDs, the /metrics and /debug/slow
// endpoints, and the opt-in debug listener that additionally exposes
// net/http/pprof. pprof is never mounted on the serving port — heap
// dumps and CPU profiles belong on an operator-only address.
package main

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"entityid/internal/hub"
	"entityid/internal/obs"
)

var processStart = time.Now()

var (
	mHTTPRequests = obs.Default.CounterVec("http_requests_total",
		"Requests served, by route pattern and status class", "route", "class")
	mHTTPSeconds = obs.Default.LatencyHistogramVec("http_request_seconds",
		"Request latency by route pattern", "route")
	mHTTPInFlight = obs.Default.Gauge("http_inflight",
		"Requests currently being served")
	mHTTPPanics = obs.Default.Counter("http_panics_total",
		"Handler panics recovered into a 500")
)

func init() {
	obs.Default.GaugeFunc("process_uptime_seconds",
		"Seconds since the process started", func() float64 {
			return time.Since(processStart).Seconds()
		})
}

// newRequestID returns 16 hex characters of randomness — enough to
// correlate one request across the access log, error bodies and panic
// reports without pretending to be a distributed trace ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unavailable"
	}
	return hex.EncodeToString(b[:])
}

// validRequestID reports whether an incoming X-Request-ID is safe to
// echo into the access log, the response header and error bodies: at
// most 64 bytes of [A-Za-z0-9._:-]. Anything else — empty, oversized,
// spaces, control bytes — is replaced by a generated ID.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return false
		}
	}
	return true
}

// statusWriter captures the status code and body size for the access
// log and metrics. It forwards Flush so the NDJSON streaming handlers
// keep flushing through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
	wrote bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.code = code
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying connection
// through the wrapper (the insert handler needs EnableFullDuplex).
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// statusClass buckets an HTTP status code into one of five constant
// label values, keeping the metrics label space finite.
func statusClass(code int) string {
	switch code / 100 {
	case 1:
		return "1xx"
	case 2:
		return "2xx"
	case 3:
		return "3xx"
	case 4:
		return "4xx"
	default:
		return "5xx"
	}
}

// handleMetrics serves the process-wide registry in the Prometheus
// text exposition format.
func handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default.WritePrometheus(w)
}

// handleSlow serves the slow-op ring: the most recent commits that
// blew the threshold, newest first, each with its per-stage breakdown.
func handleSlow(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_ns": hub.SlowOps.Threshold().Nanoseconds(),
		"recorded":     hub.SlowOps.Recorded(),
		"traces":       hub.SlowOps.Snapshot(),
	})
}

// newDebugMux builds the operator-only debug surface: metrics and the
// slow-op ring (also served on the main port), pprof, and /debug/check —
// the hub's invariant check, O(hub) and commit-stalling, which is why
// it is not on the main port.
func newDebugMux(check func() error) *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("GET /metrics", handleMetrics)
	m.HandleFunc("GET /debug/slow", handleSlow)
	m.HandleFunc("GET /debug/check", func(w http.ResponseWriter, _ *http.Request) {
		if err := check(); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	m.HandleFunc("/debug/pprof/", pprof.Index)
	m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return m
}

// startDebugServer listens on addr and serves the debug mux in the
// background. The returned server owns the listener: Close stops it.
func startDebugServer(addr string, check func() error) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("debug listener: %w", err)
	}
	srv := &http.Server{
		Handler:           newDebugMux(check),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go srv.Serve(ln)
	return srv, ln.Addr(), nil
}
