// Command entityidd serves a multi-source entity-identification hub
// over HTTP with JSON/NDJSON bodies: register autonomous sources, link
// source pairs with their correspondences, extended keys, ILFDs and
// identity rules, stream tuple inserts, and query global entity
// clusters and merged cross-source records.
//
// Usage:
//
//	entityidd -addr :8080                 # serve, in-memory only
//	entityidd -addr :8080 -data-dir /var/lib/entityidd
//	                                      # serve durably (WAL + snapshots)
//
// # Durability and crash recovery
//
// With -data-dir, every committed mutation (source registration, link,
// insert) is appended to a CRC-guarded write-ahead log in the data
// directory before it is acknowledged, and every -snapshot-every
// committed inserts a background snapshot is written atomically and
// the log truncated. On start the server loads the snapshot, replays
// the log tail, and serves exactly the pre-crash state: acknowledged
// inserts are never lost, rejected inserts never reappear, and a torn
// final write (a crash mid-append) is detected by checksum and
// dropped. SIGINT/SIGTERM close the hub cleanly; a kill -9 merely
// means the next start replays a longer log tail.
//
// Snapshots are chunked and incremental: the data directory holds a
// manifest plus per-source section files, unchanged sections carry
// forward untouched between snapshots, and hubs of any size snapshot
// without hitting a single-record ceiling. Against power loss (where
// the page cache itself is forfeit), -sync-every N additionally fsyncs
// the log every N appends, with every insert stream batching the
// remainder into one sync per flush epoch (each time its input runs
// empty, and before its end is reported).
//
// # Serving
//
// The listener is a configured http.Server: request headers must
// arrive within a deadline (slowloris guard), bodies are size-capped
// (-max-insert-body for ingest, a fixed 1MB for control requests), and
// SIGINT/SIGTERM drain in-flight requests (refusing new connections)
// before the hub is checkpointed and closed.
//
// /v1/insert streams both ways: request lines decode as they arrive
// off the wire into a hub ingest stream of the request's own (two
// goroutines over bounded channels — a slow disk or consumer stalls
// that client's upload, never the server's memory or another request),
// and one ack line streams back per input line, in input order, flushed
// per line while the body trickles and every 64 lines during a
// sustained bulk load. Acks are per line: a line that fails tuple
// parsing or hub admission is reported in place ({"ok":false,...})
// without aborting the stream; a malformed-JSON line or a body hitting
// -max-insert-body ends the response with a final
// {"ok":false,...,"terminal":true} line, and lines acked before it
// remain committed (rejecting such bodies whole with 400/413 would
// require buffering the entire body). A client disconnect cancels the
// stream and leaves exactly the acked prefix, plus at most the bounded
// in-flight window, committed — acknowledged lines are never lost,
// unacknowledged tails never half-apply.
//
// A body that is one line — the request declares its Content-Length, it
// fits 4 KiB and holds exactly one non-blank line — is not wrapped in a
// stream: the handler commits it on the request's own goroutine and
// answers with Content-Length in one write. Only the response's framing
// differs (a declared length instead of chunks): status, content type
// and the bytes of the result line are the stream's, and the ack still
// follows the WAL append and the flush epoch (the fsync, under
// -sync-every). Such a body that the client never finishes sending
// commits nothing and gets the terminal line.
//
// /v1/clusters streams one cluster per NDJSON line with bounded memory
// — the enumeration never materialises the hub — flushes periodically,
// stops as soon as the client disconnects, and paginates: pass limit=N
// for one page and resume with the returned next_cursor (the ID of the
// last cluster seen); offset=N skips N clusters first. Under
// concurrent ingest the enumeration is weakly consistent (each line is
// a committed cluster state at its visit time); on a quiescent hub it
// is exact and deterministic.
//
// API (all bodies JSON; /v1/insert and /v1/clusters stream NDJSON):
//
//	POST /v1/sources   {"name":"zagat","attrs":[{"name":"name","kind":"string"},...],"key":["name","street"]}
//	POST /v1/links     {"left":"zagat","right":"michelin",
//	                    "attrs":[{"name":"name","left":"name","right":"name"},...],
//	                    "extkey":["name","cuisine"],
//	                    "ilfds":["speciality=hunan -> cuisine=chinese"],
//	                    "identity":[{"name":"name-phone","eq":["name","phone"]}]}
//	POST /v1/insert    NDJSON stream of {"source":"zagat","tuple":["VillageWok","Wash.Ave.",null,"612-1234"]}
//	                   → NDJSON per line: {"ok":true,"index":0,"matched":[...],"cluster":{...}}
//	GET  /v1/cluster?source=zagat&key=VillageWok&key=Wash.Ave.[&merge=coalesce]
//	GET  /v1/clusters[?merge=coalesce&limit=N&offset=N&cursor=ID]
//	                   NDJSON stream, one cluster per line; limit > 0
//	                   paginates (a final {"next_cursor":ID} line marks a
//	                   truncated page), omitted or 0 streams everything
//	GET  /v1/stats
//	GET  /healthz
//	GET  /readyz
//
// # Failure modes and admission control
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
//
// Attribute kinds are string (default), int, float, bool. Tuple values
// are JSON scalars matching the declared kind; null means NULL (a
// string is parsed as the kind, which is how a float NaN or ±Inf gets
// in — and how it is rendered back, JSON having no such number). JSON
// numbers pass through float64, which is exact only up to ±2^53:
// larger int values that survived the round-trip intact are accepted,
// anything non-integral or beyond the int64 range is rejected.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"entityid"
	"entityid/internal/admit"
	ihub "entityid/internal/hub"
	"entityid/internal/rules"
	"entityid/internal/value"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		dataDir       = flag.String("data-dir", "", "directory for the write-ahead log and snapshots (empty: in-memory only)")
		snapEvery     = flag.Int("snapshot-every", 1024, "committed inserts between background snapshots (0: only on shutdown)")
		syncEvery     = flag.Int("sync-every", 0, "fsync the write-ahead log every N appends and at every ingest flush epoch — when an insert stream's input runs empty and before its results end (0: leave durability between snapshots to the page cache)")
		maxInsertBody = flag.Int64("max-insert-body", defaultMaxInsertBody, "largest /v1/insert request body in bytes (0: unlimited)")
		ingestConc    = flag.Int("ingest-concurrency", 64, "max concurrent /v1/insert requests; excess is shed with 429 + Retry-After (0: unlimited)")
		debugAddr     = flag.String("debug-addr", "", "operator-only listen address serving /metrics, /debug/slow, /debug/check and /debug/pprof (empty: disabled; pprof is never on the main port)")
		storeName     = flag.String("store", "", "storage backend: mem keeps everything resident, disk spills cold cluster records and pair tables under the data dir (empty: $ENTITYID_STORE, then mem)")
		storeHotClus  = flag.Int("store-hot-clusters", 0, "disk backend: max resident cluster members before cold records spill (0: $ENTITYID_STORE_HOT_CLUSTERS, then the default)")
	)
	flag.Parse()
	if *maxInsertBody < 0 {
		// Only 0 means unlimited; a negative value is a typo, not a
		// request to drop the DoS guard.
		log.Fatalf("entityidd: -max-insert-body must be >= 0 (0 disables the cap)")
	}
	hub := entityid.NewHub()
	durable := *dataDir != ""
	if durable {
		var err error
		hub, err = entityid.OpenHub(*dataDir,
			entityid.WithSnapshotEvery(*snapEvery), entityid.WithSyncEvery(*syncEvery),
			entityid.WithStore(*storeName), entityid.WithStoreBudgets(*storeHotClus, 0))
		if err != nil {
			log.Fatalf("entityidd: %v", err)
		}
		st := hub.Stats()
		log.Printf("entityidd: recovered %d sources, %d links, %d tuples, %d clusters from %s (store: %s)",
			st.Sources, st.Pairs, st.Tuples, st.Clusters, *dataDir, hub.StoreInfo().Backend)
		if ri := hub.Recovery(); ri != nil && ri.TailDamage != "" {
			log.Printf("entityidd: WARNING: damaged log tail dropped during recovery (unacknowledged writes discarded): %s", ri.TailDamage)
		}
	}
	srv := newServerFor(hub)
	srv.maxInsertBody = *maxInsertBody
	srv.gate = admit.New(*ingestConc)
	ihub.SlowOps.SetThreshold(slowOpThreshold)
	if *debugAddr != "" {
		dbg, dbgAddr, err := startDebugServer(*debugAddr, hub.CheckInvariants)
		if err != nil {
			log.Fatalf("entityidd: %v", err)
		}
		defer dbg.Close()
		log.Printf("entityidd: debug listener (metrics, slow-ops, invariant check, pprof) on %s", dbgAddr)
	}
	// inflight counts handlers between entry and return, so shutdown
	// can hold the hub open until the last one is truly out — even when
	// the drain timeout forces connections closed under them.
	var inflight sync.WaitGroup
	httpSrv := &http.Server{
		Addr: *addr,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			inflight.Add(1)
			defer inflight.Done()
			srv.ServeHTTP(w, r)
		}),
		// Slowloris guard: request headers must arrive promptly. Bodies
		// get no global deadline — NDJSON ingest streams legitimately —
		// but are size-capped per handler.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("entityidd: serving on %s", *addr)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("entityidd: %v", err)
	case s := <-sig:
		// Drain before the hub goes away: stop accepting, let in-flight
		// requests finish (bounded by drainTimeout; past it their
		// connections are severed so they unblock), then wait for the
		// last handler to actually return — a handler can never observe
		// a closed hub.
		log.Printf("entityidd: %v: draining in-flight requests", s)
		// Flip /readyz to draining and start shedding new ingest before
		// the listener stops: a load balancer polling readiness sees the
		// drain as soon as it starts.
		srv.draining.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("entityidd: drain: %v (severing connections)", err)
			httpSrv.Close()
		}
		cancel()
		inflight.Wait()
		if durable {
			// With automatic snapshots disabled, take the promised
			// shutdown snapshot so the next start replays nothing.
			if *snapEvery <= 0 {
				if err := hub.Checkpoint(); err != nil {
					log.Printf("entityidd: shutdown snapshot: %v", err)
				}
			}
			if err := hub.Close(); err != nil {
				log.Printf("entityidd: close: %v", err)
				os.Exit(1)
			}
			log.Printf("entityidd: hub closed cleanly")
		}
	}
}

const (
	// maxControlBody caps /v1/sources and /v1/links request bodies:
	// control-plane payloads are small by construction.
	maxControlBody = 1 << 20
	// defaultMaxInsertBody caps /v1/insert bodies unless -max-insert-body
	// overrides it.
	defaultMaxInsertBody = 64 << 20
	// clustersFlushEvery bounds how many NDJSON cluster lines buffer
	// before an explicit flush, so long enumerations stream progressively.
	clustersFlushEvery = 64
	// insertFlushEvery bounds how many /v1/insert ack lines buffer
	// before an explicit flush during a sustained bulk load; when the
	// request body trickles, acks flush as soon as the decoder idles.
	insertFlushEvery = 64
	// drainTimeout is how long shutdown waits for in-flight requests to
	// finish before their connections are severed.
	drainTimeout = 15 * time.Second
	// slowOpThreshold: commits slower than this are recorded with
	// per-stage timings at /debug/slow.
	slowOpThreshold = 100 * time.Millisecond
	// directInsertMax is the largest declared-length /v1/insert body that
	// is read whole to see whether it is one line (handleInsert) — the
	// size the stream decoder's line buffer starts at.
	directInsertMax = 4096
)

// scratch is one request's working memory, pooled across requests: out
// is where every response line that shows a cluster is rendered
// (render.go), body where a small declared-length insert body is read
// whole.
type scratch struct {
	out  []byte
	body [directInsertMax]byte
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
			"hot_pairs":            st.HotPairs,
			"spilled_pairs":        st.Pairs.Spilled,
			"pair_budget":          st.PairBudget,
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

// httpHubError maps a hub mutation failure to its status: a degraded
// or poisoned hub answers 503 with Retry-After (the client should back
// off and retry elsewhere), anything else keeps the handler's status.
func httpHubError(w http.ResponseWriter, fallback int, err error) {
	if errors.Is(err, entityid.ErrHubDegraded) || errors.Is(err, entityid.ErrHubPoisoned) {
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	httpError(w, fallback, err)
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
		k, err := parseKind(a.Kind)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		attrs[i] = entityid.Attribute{Name: a.Name, Kind: k}
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

// insertLine is one NDJSON ingest item.
type insertLine struct {
	Source string `json:"source"`
	Tuple  []any  `json:"tuple"`
}

// decodeLine parses one trimmed, non-blank body line into a hub insert.
// A framing error (malformed JSON) is terminal — nothing after the line
// can be trusted, it may be a torn tail; a tuple error is the line's own.
func (s *server) decodeLine(line []byte) (ins entityid.HubInsert, terminal bool, err error) {
	var il insertLine
	if err := json.Unmarshal(line, &il); err != nil {
		return ins, true, err
	}
	t, err := s.toTuple(il.Source, il.Tuple)
	if err != nil {
		return ins, false, err
	}
	return entityid.HubInsert{Source: il.Source, Tuple: t}, false, nil
}

// soleLine returns the one non-blank line of body, trimmed, and its
// 1-based line number — lines and blanks as the stream decoder's scanner
// sees them. ok is false when body holds no such line, or several.
func soleLine(body []byte) (line []byte, lineNo int, ok bool) {
	for n := 1; len(body) > 0; n++ {
		l := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			l, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		if l = bytes.TrimSpace(l); len(l) == 0 {
			continue
		}
		if ok {
			return nil, 0, false
		}
		line, lineNo, ok = l, n, true
	}
	return line, lineNo, ok
}

// appendErrorLine renders the result line of a failed insert line: in
// place ({"error":…,"ok":false}) or, when terminal, ending the response.
func appendErrorLine(b []byte, err error, terminal bool) []byte {
	m := map[string]any{"ok": false, "error": err.Error()}
	if terminal {
		m["terminal"] = true
	}
	j, _ := json.Marshal(m) // a map of strings and bools always marshals
	return append(append(b, j...), '\n')
}

// insertLineMeta carries one body line's fate from the decoder to the
// writer, in line order: a parse error reported in place, a terminal
// stream failure (malformed framing, body cap), or a line that went to
// the hub — whose outcome is the next result off the ingest stream,
// which preserves order.
type insertLineMeta struct {
	err      error
	terminal bool
	hub      bool
}

// streamReadError rewrites a body read failure for the terminal result
// line, naming the ingest cap when that is what cut the stream off.
func streamReadError(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return fmt.Errorf("request body exceeds %d bytes: stream truncated (lines before the cap were processed)", mbe.Limit)
	}
	return err
}

// handleInsert commits an NDJSON ingest body, one ack line per input
// line, always 200 + application/x-ndjson once admitted.
//
// A body is a stream (insertStream) unless the request shows it is not:
// one that declares its length (Content-Length, so not chunked), fits
// directInsertMax and the body cap, and turns out to hold exactly one
// non-blank line is committed right here — decode, Hub.Insert, flush
// epoch, one write carrying Content-Length (insertOne) — with no
// goroutine, channel or ingest stream built around it. The two differ in
// response framing only: status, content type and the bytes of every
// outcome (ack, tuple error, hub rejection, terminal framing error) are
// the stream's. A declared-length body that is short or fails to read
// commits nothing and answers the stream's terminal line.
func (s *server) handleInsert(w http.ResponseWriter, r *http.Request) {
	// Admission first: shed while draining or degraded (503) or when
	// the concurrency gate is full (429) — never queue.
	if !s.admitIngest(w) {
		return
	}
	defer s.gate.Release()
	if s.maxInsertBody > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxInsertBody)
	}
	buf := scratchPool.Get().(*scratch)
	defer scratchPool.Put(buf)
	body := io.Reader(r.Body)
	if n := r.ContentLength; n > 0 && n <= directInsertMax && (s.maxInsertBody <= 0 || n <= s.maxInsertBody) {
		whole := buf.body[:n]
		if _, err := io.ReadFull(r.Body, whole); err != nil {
			writeInsertLine(w, appendErrorLine(buf.out[:0], streamReadError(err), true))
			return
		}
		if line, lineNo, ok := soleLine(whole); ok {
			buf.out = s.insertOne(buf.out[:0], line, lineNo)
			writeInsertLine(w, buf.out)
			return
		}
		// Several lines, or none: a stream after all, over a copy of the
		// bytes in hand (its decoder goroutine must not share the pool's).
		body = bytes.NewReader(bytes.Clone(whole))
	}
	s.insertStream(r.Context(), w, body, buf)
}

// insertOne commits the single line of a one-line body on the request's
// goroutine and renders its result line. An ack follows the WAL append
// (Insert) and the flush epoch, as a stream's does.
func (s *server) insertOne(b, line []byte, lineNo int) []byte {
	ins, terminal, err := s.decodeLine(line)
	if err != nil {
		return appendErrorLine(b, fmt.Errorf("line %d: %w", lineNo, err), terminal)
	}
	rec, err := s.hub.Insert(ins.Source, ins.Tuple)
	if err != nil {
		return appendErrorLine(b, err, false)
	}
	s.hub.FlushEpoch()
	return s.appendAck(b, rec)
}

// writeInsertLine answers a whole /v1/insert response that is one line:
// a declared length, so net/http neither chunks it nor needs a flush —
// header and body leave in one segment.
func writeInsertLine(w http.ResponseWriter, line []byte) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Length", strconv.Itoa(len(line)))
	w.Write(line) // a failed write means the client is gone: nothing to tell it
}

// insertStream streams an NDJSON ingest body through a hub ingest
// stream: lines decode as they arrive off the wire, commit in order
// with bounded in-flight work, and each result line is written — and
// periodically flushed — while later lines are still being read.
// Nothing buffers O(body).
//
// Contract: acks are per line. A line that fails to parse is reported
// in place without aborting the stream; a malformed-JSON line or a body
// over -max-insert-body terminates the stream with a final
// {"ok":false,...,"terminal":true} line — lines already acked by then
// are committed and stay committed. A client disconnect cancels the
// ingest stream mid-flight and leaves exactly the acked prefix — and at
// most a bounded in-flight window past it — committed.
func (s *server) insertStream(ctx context.Context, w http.ResponseWriter, body io.Reader, buf *scratch) {
	in := make(chan entityid.HubInsert)
	metas := make(chan insertLineMeta, insertFlushEvery)
	// Decoder: scan the body incrementally, parse each line, and hand
	// valid tuples to the ingest stream. Every send selects on ctx so a
	// disconnected client never wedges the scan. The meta always
	// precedes its item, so the writer can pair hub results with lines.
	go func() {
		defer close(in)
		defer close(metas)
		sendMeta := func(m insertLineMeta) bool {
			select {
			case metas <- m:
				return true
			case <-ctx.Done():
				return false
			}
		}
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 0, directInsertMax), 1<<20)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			ins, terminal, err := s.decodeLine(line)
			if terminal {
				// If the tear came from a read failure — the body cap
				// truncating mid-line is the common case — report that
				// instead of the confusing partial-JSON error.
				terr := error(fmt.Errorf("line %d: %w", lineNo, err))
				if !sc.Scan() {
					if serr := sc.Err(); serr != nil {
						terr = streamReadError(serr)
					}
				}
				sendMeta(insertLineMeta{err: terr, terminal: true})
				return
			}
			if err != nil {
				// Tuple-level error: reported in place, stream continues.
				if !sendMeta(insertLineMeta{err: fmt.Errorf("line %d: %w", lineNo, err)}) {
					return
				}
				continue
			}
			if !sendMeta(insertLineMeta{hub: true}) {
				return
			}
			select {
			case in <- ins:
			case <-ctx.Done():
				return
			}
		}
		if err := sc.Err(); err != nil {
			sendMeta(insertLineMeta{err: streamReadError(err), terminal: true})
		}
	}()
	results := s.hub.IngestStream(ctx, in, entityid.HubStreamOptions{})

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	// Commit the 200 and push headers now: acks stream per line, so a
	// client reading the response before it finishes sending the body
	// (the normal pipelined pattern) must not wait on the first result.
	// Full duplex is required first — without it net/http drains the
	// rest of the request body before the first response write, which
	// deadlocks against a client that reads acks as it sends.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	// dead flags a failed response write (client gone): stop writing but
	// keep draining metas and results so the decoder and the ingest
	// stream wind down through their normal paths.
	dead := false
	emit := func(line []byte) {
		buf.out = line // rendered into buf.out: keep what it grew to
		if dead {
			return
		}
		if _, err := w.Write(line); err != nil {
			dead = true
		}
	}
	pending := 0
	flush := func() {
		if flusher != nil && !dead && pending > 0 {
			flusher.Flush()
		}
		pending = 0
	}
	for {
		var m insertLineMeta
		var ok bool
		select {
		case m, ok = <-metas:
		default:
			// The decoder has no line ready (client is trickling):
			// flush what's written so interactive streams see per-line
			// acks, then wait.
			flush()
			m, ok = <-metas
		}
		if !ok {
			break
		}
		switch {
		case m.err != nil:
			emit(appendErrorLine(buf.out[:0], m.err, m.terminal))
		default:
			res, rok := <-results
			if !rok {
				// The stream closed early (canceled): nothing more to ack.
				dead = true
				continue
			}
			if res.Err != nil {
				emit(appendErrorLine(buf.out[:0], res.Err, false))
			} else {
				emit(s.appendAck(buf.out[:0], res.Receipt))
			}
		}
		pending++
		if pending >= insertFlushEvery {
			flush()
		}
	}
	// Drain any residual results (cancellation races) so the stream's
	// commit goroutine is never left blocked on an unread channel.
	for range results {
	}
}

func (s *server) handleCluster(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	source, keys := q.Get("source"), q["key"]
	if source == "" || len(keys) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("source and key parameters required"))
		return
	}
	sch, err := s.hub.SourceSchema(source)
	if err != nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown source %q", source))
		return
	}
	// Key parameters arrive in primary-key order; with no declared key
	// the whole attribute set is the key (the paper's convention,
	// applied by NewRelation).
	pk := sch.PrimaryKey()
	if len(pk) != len(keys) {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("source %q: %d key values, primary key has %d attributes", source, len(keys), len(pk)))
		return
	}
	vals := make([]entityid.Value, len(keys))
	for i, k := range keys {
		v, err := value.Parse(k, sch.KindOf(pk[i]))
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("key %d: %w", i, err))
			return
		}
		vals[i] = v
	}
	cl, err := s.hub.Lookup(source, vals...)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.out = append(s.appendCluster(sc.out[:0], cl, q.Get("merge")), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(sc.out) // a failed write means the client is gone
}

// handleClusters streams the cluster enumeration as NDJSON with
// bounded memory: one cluster is materialised at a time, the response
// is flushed periodically, and the scan stops as soon as the client
// disconnects or a write fails. limit/cursor paginate (a final
// next_cursor line marks a truncated page); offset skips clusters.
func (s *server) handleClusters(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	merge := q.Get("merge")
	limit, err := queryInt(q, "limit")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	offset, err := queryInt(q, "offset")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	flusher, _ := w.(http.Flusher)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	emitted, truncated, aborted := 0, false, false
	var last string
	walkErr := s.hub.ClustersWalk(q.Get("cursor"), offset, func(cl entityid.EntityCluster, resume string) bool {
		if ctx.Err() != nil {
			aborted = true // client gone: abandon the scan
			return false
		}
		if limit > 0 && emitted == limit {
			truncated = true
			return false
		}
		// The NDJSON header commits lazily, with the first line, so a
		// cursor parse error can still answer with a JSON 400.
		if emitted == 0 {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		sc.out = append(s.appendCluster(sc.out[:0], cl, merge), '\n')
		if _, err := w.Write(sc.out); err != nil {
			aborted = true // write failed (client disconnected)
			return false
		}
		emitted++
		last = resume
		if flusher != nil && emitted%clustersFlushEvery == 0 {
			flusher.Flush()
		}
		return true
	})
	if walkErr != nil {
		httpError(w, http.StatusBadRequest, walkErr)
		return
	}
	if aborted {
		return
	}
	if truncated {
		json.NewEncoder(w).Encode(map[string]any{"next_cursor": last})
		return
	}
	// An empty enumeration still answers as NDJSON.
	if emitted == 0 {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
}

// queryInt parses a non-negative integer query parameter (absent: 0).
func queryInt(q url.Values, name string) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad %s %q", name, raw)
	}
	return v, nil
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

// toTuple converts JSON scalars into a typed tuple per the source
// schema.
func (s *server) toTuple(source string, raw []any) (entityid.Tuple, error) {
	sch, err := s.hub.SourceSchema(source)
	if err != nil {
		return nil, fmt.Errorf("unknown source %q", source)
	}
	if len(raw) != sch.Arity() {
		return nil, fmt.Errorf("source %q: %d values, schema wants %d", source, len(raw), sch.Arity())
	}
	t := make(entityid.Tuple, len(raw))
	for i, rv := range raw {
		a := sch.Attr(i)
		v, err := jsonToValue(rv, a.Kind)
		if err != nil {
			return nil, fmt.Errorf("source %q: attribute %q: %w", source, a.Name, err)
		}
		t[i] = v
	}
	return t, nil
}

func parseKind(k string) (entityid.Kind, error) {
	switch k {
	case "", "string":
		return entityid.KindString, nil
	case "int":
		return entityid.KindInt, nil
	case "float":
		return entityid.KindFloat, nil
	case "bool":
		return entityid.KindBool, nil
	default:
		return entityid.KindString, fmt.Errorf("unknown kind %q", k)
	}
}

// jsonToValue converts one decoded JSON scalar to a typed value.
func jsonToValue(raw any, kind value.Kind) (value.Value, error) {
	if raw == nil {
		return value.Null, nil
	}
	switch v := raw.(type) {
	case string:
		return value.Parse(v, kind)
	case float64:
		switch kind {
		case value.KindInt:
			if v != math.Trunc(v) {
				return value.Null, fmt.Errorf("non-integer %v for int attribute", v)
			}
			// Range-check before converting: float→int overflow is
			// implementation-defined in Go. Both bounds are exact float64
			// values (-2^63 is representable; 2^63 is the first excluded
			// value). Integers beyond ±2^53 already lost precision in
			// JSON's float64 carriage, but in-range ones convert exactly.
			if v < math.MinInt64 || v >= -(math.MinInt64) {
				return value.Null, fmt.Errorf("integer %v overflows int64", v)
			}
			return value.Int(int64(v)), nil
		case value.KindFloat:
			return value.Float(v), nil
		default:
			return value.Null, fmt.Errorf("number %v for %s attribute", v, kind)
		}
	case bool:
		if kind != value.KindBool {
			return value.Null, fmt.Errorf("bool for %s attribute", kind)
		}
		return value.Bool(v), nil
	default:
		return value.Null, fmt.Errorf("unsupported JSON value %T", raw)
	}
}

var mergeStrategies = map[string]entityid.MergeStrategy{
	"coalesce": entityid.MergeCoalesce,
	"left":     entityid.MergePreferR,
	"right":    entityid.MergePreferS,
	"strict":   entityid.MergeStrict,
}
