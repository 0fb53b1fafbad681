package main

// Golden-file tests for the serving contract: a fixed request script
// runs against a fresh server and every named response — status,
// content type, body — must match its checked-in golden file, so any
// refactor that changes the wire format is caught in review. The
// responses are fully deterministic (no timestamps, sorted JSON keys,
// deterministic cluster enumeration).
//
// Regenerate with:
//
//	go test ./cmd/entityidd -run TestServerGolden -update-golden

import (
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"entityid"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden.json")

// goldenStep is one scripted request; a named step is pinned to
// testdata/<name>.golden.json, an unnamed one is setup.
type goldenStep struct {
	name   string
	method string
	path   string
	body   string
}

var goldenScript = []goldenStep{
	{"register", "POST", "/v1/sources",
		`{"name":"zagat","attrs":[{"name":"name"},{"name":"street"},{"name":"cuisine"},{"name":"phone"}],"key":["name","street"]}`},
	{"", "POST", "/v1/sources",
		`{"name":"michelin","attrs":[{"name":"name"},{"name":"city"},{"name":"speciality"},{"name":"phone"}],"key":["name","city"]}`},
	{"register_conflict", "POST", "/v1/sources", `{"name":"zagat","attrs":[{"name":"name"}]}`},
	{"link", "POST", "/v1/links",
		`{"left":"zagat","right":"michelin","extkey":["name","cuisine"],
		  "ilfds":["speciality=hunan -> cuisine=chinese","speciality=mughalai -> cuisine=indian"],
		  "attrs":[{"name":"name","left":"name","right":"name"},{"name":"street","left":"street"},
		           {"name":"city","right":"city"},{"name":"cuisine","left":"cuisine"},
		           {"name":"speciality","right":"speciality"},{"name":"phone","left":"phone","right":"phone"}]}`},
	{"link_unknown_source", "POST", "/v1/links",
		`{"left":"zagat","right":"nowhere","extkey":["name"],"attrs":[{"name":"name","left":"name","right":"name"}]}`},
	// The zagat tuples commit in their own batch before the michelin
	// lines whose "matched" output is pinned: IngestBatch's worker pool
	// makes cross-source match output order-sensitive within one batch.
	{"insert", "POST", "/v1/insert", strings.Join([]string{
		`{"source":"zagat","tuple":["villagewok","wash ave","chinese","612-0001"]}`,
		`{"source":"zagat","tuple":["goldenleaf","lake st","chinese","612-0002"]}`,
	}, "\n")},
	{"insert_cross", "POST", "/v1/insert", strings.Join([]string{
		`{"source":"michelin","tuple":["villagewok","minneapolis","hunan","612-0001"]}`,
		`{"source":"michelin","tuple":["wrong","arity"]}`,
		`{"source":"michelin","tuple":["anjuman","st paul","mughalai","612-0004"]}`,
	}, "\n")},
	// The §3.2 uniqueness rejection: a second michelin villagewok would
	// pair the same zagat tuple twice.
	{"reject", "POST", "/v1/insert",
		`{"source":"michelin","tuple":["villagewok","st paul","hunan","612-0009"]}`},
	{"cluster", "GET", "/v1/cluster?source=zagat&key=villagewok&key=wash+ave&merge=coalesce", ""},
	{"clusters", "GET", "/v1/clusters?merge=coalesce", ""},
	// Pagination: limit truncates with a next_cursor line, the cursor
	// resumes after the named cluster, offset skips, and a malformed
	// cursor is rejected before any NDJSON is written.
	{"clusters_page1", "GET", "/v1/clusters?limit=2", ""},
	{"clusters_page2", "GET", "/v1/clusters?limit=2&cursor=zagat/1", ""},
	{"clusters_offset", "GET", "/v1/clusters?offset=1&limit=1", ""},
	{"clusters_bad_cursor", "GET", "/v1/clusters?cursor=nope", ""},
	{"clusters_bad_limit", "GET", "/v1/clusters?limit=-1", ""},
	{"stats", "GET", "/v1/stats", ""},
}

// goldenResponse is the pinned shape of one response.
type goldenResponse struct {
	Status      int    `json:"status"`
	ContentType string `json:"content_type"`
	Body        any    `json:"body"`
}

// scrubRequestID replaces the per-request random request_id with a
// fixed placeholder so error bodies stay pinnable.
func scrubRequestID(v any) any {
	switch t := v.(type) {
	case map[string]any:
		for k, e := range t {
			if k == "request_id" {
				t[k] = "REDACTED"
			} else {
				t[k] = scrubRequestID(e)
			}
		}
	case []any:
		for i, e := range t {
			t[i] = scrubRequestID(e)
		}
	}
	return v
}

func TestServerGolden(t *testing.T) {
	srv := newServer()
	for _, st := range goldenScript {
		req := httptest.NewRequest(st.method, st.path, strings.NewReader(st.body))
		rw := httptest.NewRecorder()
		srv.ServeHTTP(rw, req)
		if st.name == "" {
			if rw.Code >= 400 {
				t.Fatalf("setup %s %s: %d %s", st.method, st.path, rw.Code, rw.Body.String())
			}
			continue
		}
		got := goldenResponse{Status: rw.Code, ContentType: rw.Header().Get("Content-Type")}
		raw := rw.Body.String()
		if strings.Contains(got.ContentType, "ndjson") {
			var lines []any
			for _, line := range strings.Split(raw, "\n") {
				if strings.TrimSpace(line) == "" {
					continue
				}
				var v any
				if err := json.Unmarshal([]byte(line), &v); err != nil {
					t.Fatalf("%s: bad NDJSON line %q: %v", st.name, line, err)
				}
				lines = append(lines, v)
			}
			got.Body = scrubRequestID(lines)
		} else {
			var v any
			if err := json.Unmarshal([]byte(raw), &v); err != nil {
				t.Fatalf("%s: bad JSON body %q: %v", st.name, raw, err)
			}
			got.Body = scrubRequestID(v)
		}
		rendered, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		rendered = append(rendered, '\n')

		path := filepath.Join("testdata", st.name+".golden.json")
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, rendered, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update-golden)", st.name, err)
		}
		if string(want) != string(rendered) {
			t.Errorf("%s: response drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
				st.name, path, rendered, want)
		}
	}
}

// TestServerDurableRecovery drives the serving contract across a
// restart: register/link/insert over HTTP against a durable hub,
// reopen the data directory, and the recovered server must parse
// typed keys (against the recovered schemas), serve the
// same clusters, and keep accepting inserts.
func TestServerDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	boot := func() *server {
		h, err := entityid.OpenHub(dir, entityid.WithSnapshotEvery(3))
		if err != nil {
			t.Fatal(err)
		}
		return newServerFor(h)
	}
	srv := boot()
	for _, st := range goldenScript {
		if st.name == "register_conflict" || st.name == "link_unknown_source" {
			continue
		}
		req := httptest.NewRequest(st.method, st.path, strings.NewReader(st.body))
		rw := httptest.NewRecorder()
		srv.ServeHTTP(rw, req)
		if rw.Code >= 500 {
			t.Fatalf("%s %s: %d %s", st.method, st.path, rw.Code, rw.Body.String())
		}
	}
	if err := srv.hub.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := boot()
	defer srv2.hub.Close()
	code, cl := do(t, srv2, "GET", "/v1/cluster?source=zagat&key=villagewok&key=wash+ave&merge=coalesce", "")
	if code != 200 {
		t.Fatalf("recovered cluster lookup: %d %v", code, cl)
	}
	if got := len(cl["members"].([]any)); got != 2 {
		t.Fatalf("recovered cluster has %d members, want 2", got)
	}
	if cl["merged"].(map[string]any)["speciality"] != "hunan" {
		t.Fatalf("recovered merge: %v", cl["merged"])
	}
	_, results := ndjson(t, srv2, "POST", "/v1/insert",
		`{"source":"michelin","tuple":["goldenleaf","minneapolis","hunan","612-0002"]}`)
	if len(results) != 1 || results[0]["ok"] != true {
		t.Fatalf("post-recovery insert: %v", results)
	}
	code, stats := do(t, srv2, "GET", "/v1/stats", "")
	if code != 200 || stats["tuples"].(float64) != 5 || stats["matches"].(float64) != 2 {
		t.Fatalf("post-recovery stats: %d %v", code, stats)
	}
}
