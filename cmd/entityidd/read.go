// GET /v1/cluster and GET /v1/clusters, the two read handlers. A refusal
// the hub types as the client's (unknown source, no such key, a malformed
// cursor) is a 4xx; anything else a read returns is the store's fault and
// answers 500 — or, once a stream's 200 is out, ends it with a terminal line.
//
// /v1/clusters streams one cluster per NDJSON line with bounded memory
// — the enumeration never materialises the hub, and lends each cluster
// to the handler only while it renders the line — writes and flushes
// once per clustersWriteBytes of lines, stops as soon as the client
// disconnects, and paginates: pass limit=N
// for one page and resume with the returned next_cursor (the ID of the
// last cluster seen); offset=N skips N clusters first. Under
// concurrent ingest the enumeration is weakly consistent (each line is
// a committed cluster state at its visit time); on a quiescent hub it
// is exact and deterministic.
package main

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"entityid"
	"entityid/internal/value"
)

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
		httpHubError(w, http.StatusInternalServerError, err)
		return
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.out = append(s.appendCluster(sc.out[:0], cl, q.Get("merge")), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Write(sc.out) // a failed write means the client is gone
}

// handleClusters streams the cluster enumeration as NDJSON with
// bounded memory: one cluster is materialised at a time and rendered
// into the pooled buffer, which is written and flushed whenever it
// passes clustersWriteBytes and once at the end, and the scan stops as
// soon as the client disconnects or a write fails. limit/cursor paginate
// (a final next_cursor line marks a truncated page); offset skips
// clusters. Whatever ends the stream — the last line, a next_cursor line
// or a terminal one — goes out after every line rendered before it.
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
	sc.out = sc.out[:0]
	// send writes and flushes the rendered lines; false: the client is gone.
	send := func() bool {
		_, err := w.Write(sc.out)
		sc.out = sc.out[:0]
		if flusher != nil {
			flusher.Flush()
		}
		return err == nil
	}
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
		// The NDJSON header commits lazily, with the first line, so a walk
		// that fails before it can still answer with a status.
		if emitted == 0 {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		sc.out = append(s.appendCluster(sc.out, cl, merge), '\n')
		emitted++
		last = resume
		if len(sc.out) >= clustersWriteBytes && !send() {
			aborted = true // write failed (client disconnected)
			return false
		}
		return true
	})
	switch {
	case walkErr == nil:
	case emitted == 0:
		httpHubError(w, http.StatusInternalServerError, walkErr)
		return
	default:
		// The 200 and a first line are committed: a read that fails now (the
		// store could not page a record in) ends the stream the way
		// /v1/insert ends a torn one, with one terminal line.
		sc.out = appendScanError(sc.out, walkErr)
		send()
		return
	}
	switch {
	case aborted:
		return
	case truncated:
		sc.out = appendNextCursor(sc.out, last)
	case emitted == 0:
		// An empty enumeration still answers as NDJSON.
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	if len(sc.out) > 0 {
		w.Write(sc.out) // a failed write means the client is gone
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

var mergeStrategies = map[string]entityid.MergeStrategy{
	"coalesce": entityid.MergeCoalesce,
	"left":     entityid.MergePreferR,
	"right":    entityid.MergePreferS,
	"strict":   entityid.MergeStrict,
}
