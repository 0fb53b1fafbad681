// The front-end's frame: the server and its routes, the middleware every
// request passes (request ID, metrics, access log, panic recovery),
// readiness and admission, the error and JSON writers every handler
// shares, and the control-plane handlers (sources, links, stats).
//
// Ingest is admission-controlled: at most -ingest-concurrency insert
// requests run at once, and a request finding no free slot is shed
// immediately with 429 and a Retry-After header instead of queueing.
// When the hub's disk fails persistently (ENOSPC, EIO) the hub enters
// a degraded read-only mode: reads and cluster streaming keep serving,
// while ingest and control-plane writes answer 503 with Retry-After
// until background recovery probes find the disk healthy again.
// /readyz reports ready/degraded/poisoned plus the draining flag with
// a JSON body (503 unless fully ready), so load balancers can stop
// routing ingest before liveness fails; /healthz stays a pure liveness
// check. A handler panic is recovered into a clean JSON 500 with the
// stack logged server-side.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"entityid"
	"entityid/internal/admit"
	"entityid/internal/relation"
	"entityid/internal/rules"
	"entityid/internal/value"
)

// scratch is one request's working memory, pooled across requests: out
// is where every response line that shows a cluster is rendered
// (render.go), body where a small declared-length insert body is read
// whole, blocks where its tuple is parsed (decodeLine).
type scratch struct {
	out    []byte
	body   [directInsertMax]byte
	blocks relation.TupleBlocks
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// server is the HTTP front-end over one hub. Which sources exist, and
// their schemas, is the hub's knowledge alone: tuples and key
// parameters are parsed against Hub.SourceSchema.
type server struct {
	hub *entityid.Hub
	mux *http.ServeMux
	// maxInsertBody caps /v1/insert request bodies (0: unlimited).
	maxInsertBody int64
	// gate bounds concurrent ingest requests; excess is shed with 429.
	gate *admit.Gate
	// draining flips when shutdown starts: /readyz answers 503 and new
	// ingest is refused while in-flight requests finish.
	draining atomic.Bool
	// health reports the hub's health; a seam so tests can simulate
	// degraded state without a real disk fault.
	health func() entityid.HubHealth
	// lastSnapshot reports the latest snapshot; a seam so tests can
	// exercise /readyz snapshot-age reporting without a data dir.
	lastSnapshot func() entityid.HubSnapshotStats
	// logf writes the access log and panic reports; a seam so tests can
	// capture log output.
	logf func(format string, args ...any)
	// srcNames holds the source names members have rendered with, each
	// escaped once (appendSource).
	srcNames atomic.Pointer[[]srcJSON]
}

func newServer() *server { return newServerFor(entityid.NewHub()) }

// newServerFor builds the front-end over an existing hub — possibly
// one recovered from disk.
func newServerFor(h *entityid.Hub) *server {
	s := &server{
		hub:           h,
		mux:           http.NewServeMux(),
		maxInsertBody: defaultMaxInsertBody,
		gate:          admit.New(0),
		health:        h.Health,
		lastSnapshot:  h.LastSnapshot,
		logf:          log.Printf,
	}
	s.mux.HandleFunc("POST /v1/sources", s.handleSources)
	s.mux.HandleFunc("POST /v1/links", s.handleLinks)
	s.mux.HandleFunc("POST /v1/insert", s.handleInsert)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("GET /v1/clusters", s.handleClusters)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", handleMetrics)
	s.mux.HandleFunc("GET /debug/slow", handleSlow)
	return s
}

// ServeHTTP dispatches through the mux with a request ID, per-route
// metrics, a structured access log line, and panic recovery: a handler
// panic logs the stack and answers a clean JSON 500 instead of
// net/http tearing the connection down mid-response.
// http.ErrAbortHandler keeps its contract (re-panicked, connection
// severed).
//
// An incoming X-Request-ID is honored when it is a plain token (so a
// proxy's ID correlates across hops); otherwise one is generated. Either
// way the ID is set on the response before dispatch, which also makes it
// available to httpError for inclusion in error bodies. The ID and the
// request path are the client's bytes: the ID is restricted to what
// cannot forge a log field and the decoded path is logged quoted, so one
// request is always one access-log line.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := r.Header.Get("X-Request-ID")
	if !validRequestID(rid) {
		rid = newRequestID()
	}
	w.Header().Set("X-Request-ID", rid)
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	mHTTPInFlight.Add(1)
	defer mHTTPInFlight.Add(-1)
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec)
		}
		mHTTPPanics.Inc()
		s.logf("entityidd: panic serving %s %q request_id=%s: %v\n%s", r.Method, r.URL.Path, rid, rec, debug.Stack())
		// Best effort: if the handler already wrote a response, the
		// status is gone and this write lands in the body or fails.
		httpError(sw, http.StatusInternalServerError, fmt.Errorf("internal server error"))
	}()
	s.mux.ServeHTTP(sw, r)
	// r.Pattern is the mux pattern that matched (Go 1.22+); empty means
	// 404/405 — collapse those so unmatched paths cannot grow the label
	// space.
	route := r.Pattern
	if route == "" {
		route = "unmatched"
	}
	dur := time.Since(start)
	mHTTPRequests.With(route, statusClass(sw.code)).Inc()
	mHTTPSeconds.With(route).Observe(dur)
	s.logf("entityidd: access method=%s path=%q route=%q status=%d bytes=%d dur_ms=%.3f request_id=%s",
		r.Method, r.URL.Path, route, sw.code, sw.bytes, float64(dur)/float64(time.Millisecond), rid)
}

// handleReadyz is the routing-readiness probe (distinct from the
// /healthz liveness check): 200 only when the hub is read-write and
// the server is not draining, 503 with the same JSON body otherwise —
// so a load balancer can stop routing ingest while reads still work
// and the process is still alive.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	h := s.health()
	status := h.State.String()
	if s.draining.Load() {
		status = "draining"
	}
	st := s.hub.StoreInfo()
	body := map[string]any{
		"status":         status,
		"hub":            h.State.String(),
		"uptime_seconds": time.Since(processStart).Seconds(),
		"store": map[string]any{
			"backend":              st.Backend,
			"hot_cluster_records":  st.Clusters.HotRecords,
			"hot_cluster_entries":  st.Clusters.HotEntries,
			"cold_cluster_records": st.Clusters.ColdRecords,
			"cluster_entry_budget": st.Clusters.Budget,
		},
	}
	if snap := s.lastSnapshot(); !snap.Taken.IsZero() {
		body["last_snapshot_age_seconds"] = time.Since(snap.Taken).Seconds()
		body["last_snapshot_watermark"] = snap.Watermark
	}
	if h.Cause != "" {
		body["cause"] = h.Cause
		body["since"] = h.Since.UTC().Format(time.RFC3339)
		body["probes"] = h.Probes
	}
	code := http.StatusOK
	if status != "ready" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// admitIngest applies admission control to an ingest request: shed
// with 503 while draining or while the hub is not read-write, shed
// with 429 when the concurrency gate is full. On true the caller holds
// a gate slot and must Release it.
func (s *server) admitIngest(w http.ResponseWriter) bool {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, errors.New("draining: ingest not accepted"))
		return false
	}
	if h := s.health(); h.State != entityid.HubReady {
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable,
			fmt.Errorf("hub %s: ingest suspended (%s)", h.State, h.Cause))
		return false
	}
	if !s.gate.TryAcquire() {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			fmt.Errorf("ingest concurrency limit (%d) reached", s.gate.Limit()))
		return false
	}
	return true
}

// httpHubError is the one place a hub error becomes a status. A degraded
// or poisoned hub is 503 with Retry-After (back off, retry elsewhere);
// the two typed read refusals are the client's (no such source or key:
// 404, a malformed cursor: 400); anything else gets the handler's
// fallback — for a read that is 500, a storage fault.
func httpHubError(w http.ResponseWriter, fallback int, err error) {
	code := fallback
	switch {
	case errors.Is(err, entityid.ErrHubDegraded), errors.Is(err, entityid.ErrHubPoisoned):
		w.Header().Set("Retry-After", "5")
		code = http.StatusServiceUnavailable
	case errors.Is(err, entityid.ErrHubNotFound):
		code = http.StatusNotFound
	case errors.Is(err, entityid.ErrHubBadCursor):
		code = http.StatusBadRequest
	}
	httpError(w, code, err)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body := map[string]string{"error": err.Error()}
	// The middleware stamps the request ID on the response header before
	// dispatch; echoing it in the error body lets a client quote one
	// string in a support report.
	if rid := w.Header().Get("X-Request-ID"); rid != "" {
		body["request_id"] = rid
	}
	json.NewEncoder(w).Encode(body)
}

// bodyErrStatus maps a request-body read/decode failure to its status:
// an exceeded size cap is 413, anything else a plain bad request.
func bodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// sourceReq declares one source.
type sourceReq struct {
	Name  string `json:"name"`
	Attrs []struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
	} `json:"attrs"`
	Key []string `json:"key"`
}

func (s *server) handleSources(w http.ResponseWriter, r *http.Request) {
	var req sourceReq
	r.Body = http.MaxBytesReader(w, r.Body, maxControlBody)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, bodyErrStatus(err), err)
		return
	}
	attrs := make([]entityid.Attribute, len(req.Attrs))
	for i, a := range req.Attrs {
		attrs[i].Name = a.Name
		if a.Kind == "" {
			continue // NewRelation reads an undeclared kind as string
		}
		var err error
		if attrs[i].Kind, err = value.ParseKind(a.Kind); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
	}
	var keys [][]string
	if len(req.Key) > 0 {
		keys = append(keys, req.Key)
	}
	rel, err := entityid.NewRelation(req.Name, attrs, keys...)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.hub.AddSource(req.Name, rel); err != nil {
		httpHubError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"source": req.Name})
}

// linkReq declares one source pair.
type linkReq struct {
	Left  string `json:"left"`
	Right string `json:"right"`
	Attrs []struct {
		Name  string `json:"name"`
		Left  string `json:"left"`
		Right string `json:"right"`
	} `json:"attrs"`
	ExtKey   []string `json:"extkey"`
	ILFDs    []string `json:"ilfds"`
	Identity []struct {
		Name string   `json:"name"`
		Eq   []string `json:"eq"`
	} `json:"identity"`
}

func (s *server) handleLinks(w http.ResponseWriter, r *http.Request) {
	var req linkReq
	r.Body = http.MaxBytesReader(w, r.Body, maxControlBody)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, bodyErrStatus(err), err)
		return
	}
	spec := entityid.NewPair(req.Left, req.Right)
	for _, a := range req.Attrs {
		spec.MapAttr(a.Name, a.Left, a.Right)
	}
	spec.SetExtendedKey(req.ExtKey...)
	for _, line := range req.ILFDs {
		spec.AddILFDText(line)
	}
	for _, id := range req.Identity {
		// The key-equivalence form covers the serving API: agreement on
		// every listed attribute implies identity (§2.2 / §4.1).
		rule, err := rules.KeyEquivalence(id.Name, id.Eq)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		spec.AddIdentityRule(rule)
	}
	if err := s.hub.Link(spec); err != nil {
		httpHubError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"left": req.Left, "right": req.Right})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.hub.Stats()
	writeJSON(w, http.StatusOK, map[string]int{
		"sources":  st.Sources,
		"pairs":    st.Pairs,
		"tuples":   st.Tuples,
		"matches":  st.Matches,
		"clusters": st.Clusters,
	})
}
