package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"entityid/internal/value"
)

// do runs one request against the server and decodes a JSON object
// response.
func do(t testing.TB, srv *server, method, path, body string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, req)
	out := map[string]any{}
	if len(bytes.TrimSpace(rw.Body.Bytes())) > 0 && !strings.Contains(rw.Header().Get("Content-Type"), "ndjson") {
		if err := json.Unmarshal(rw.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, rw.Body.String(), err)
		}
	}
	return rw.Code, out
}

// ndjson runs one request and decodes every NDJSON line.
func ndjson(t testing.TB, srv *server, method, path, body string) (int, []map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, req)
	var lines []map[string]any
	for _, line := range strings.Split(rw.Body.String(), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		m := map[string]any{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("%s %s: bad NDJSON line %q: %v", method, path, line, err)
		}
		lines = append(lines, m)
	}
	return rw.Code, lines
}

// TestServerEndToEnd drives the acceptance scenario over HTTP: three
// sources, per-pair knowledge with different extended keys, streaming
// NDJSON ingest, deterministic global clusters, a merged record, and a
// transitive-uniqueness rejection that leaves state untouched.
func TestServerEndToEnd(t *testing.T) {
	srv := newServer()

	for _, src := range []string{
		`{"name":"zagat","attrs":[{"name":"name"},{"name":"street"},{"name":"cuisine"},{"name":"phone"}],"key":["name","street"]}`,
		`{"name":"michelin","attrs":[{"name":"name"},{"name":"city"},{"name":"speciality"},{"name":"phone"}],"key":["name","city"]}`,
		`{"name":"infatuation","attrs":[{"name":"name"},{"name":"neighborhood"},{"name":"speciality"},{"name":"phone"}],"key":["name","neighborhood"]}`,
	} {
		if code, out := do(t, srv, "POST", "/v1/sources", src); code != http.StatusCreated {
			t.Fatalf("source: %d %v", code, out)
		}
	}
	// Duplicate source rejected.
	if code, _ := do(t, srv, "POST", "/v1/sources", `{"name":"zagat","attrs":[{"name":"name"}]}`); code != http.StatusConflict {
		t.Fatalf("duplicate source accepted: %d", code)
	}

	ilfds := `["speciality=hunan -> cuisine=chinese","speciality=gyros -> cuisine=greek","speciality=mughalai -> cuisine=indian"]`
	links := []string{
		`{"left":"zagat","right":"michelin","extkey":["name","cuisine"],"ilfds":` + ilfds + `,"attrs":[
			{"name":"name","left":"name","right":"name"},{"name":"street","left":"street"},
			{"name":"city","right":"city"},{"name":"cuisine","left":"cuisine"},
			{"name":"speciality","right":"speciality"},{"name":"phone","left":"phone","right":"phone"}]}`,
		`{"left":"zagat","right":"infatuation","extkey":["name","cuisine"],"ilfds":` + ilfds + `,"attrs":[
			{"name":"name","left":"name","right":"name"},{"name":"street","left":"street"},
			{"name":"hood","right":"neighborhood"},{"name":"cuisine","left":"cuisine"},
			{"name":"speciality","right":"speciality"},{"name":"phone","left":"phone","right":"phone"}]}`,
		`{"left":"michelin","right":"infatuation","extkey":["phone"],"attrs":[
			{"name":"name","left":"name","right":"name"},{"name":"city","left":"city"},
			{"name":"hood","right":"neighborhood"},{"name":"speciality","left":"speciality","right":"speciality"},
			{"name":"phone","left":"phone","right":"phone"}]}`,
	}
	for _, l := range links {
		if code, out := do(t, srv, "POST", "/v1/links", l); code != http.StatusCreated {
			t.Fatalf("link: %d %v", code, out)
		}
	}

	// Streaming ingest. The zagat tuples commit first in their own
	// request; a stream commits its lines in order, so the cross-source
	// request's "matched" output below is deterministic.
	code, results := ndjson(t, srv, "POST", "/v1/insert", strings.Join([]string{
		`{"source":"zagat","tuple":["villagewok","wash ave","chinese","612-0001"]}`,
		`{"source":"zagat","tuple":["goldenleaf","lake st","chinese","612-0002"]}`,
	}, "\n"))
	if code != http.StatusOK || len(results) != 2 {
		t.Fatalf("insert: %d, %d results", code, len(results))
	}
	// The cross-source batch includes one malformed line (wrong arity)
	// reported in place without aborting the batch.
	code, results = ndjson(t, srv, "POST", "/v1/insert", strings.Join([]string{
		`{"source":"michelin","tuple":["villagewok","minneapolis","hunan","612-0001"]}`,
		`{"source":"michelin","tuple":["too","short"]}`,
		`{"source":"infatuation","tuple":["anjuman","cathedral hill","mughalai","612-0004"]}`,
	}, "\n"))
	if code != http.StatusOK || len(results) != 3 {
		t.Fatalf("insert: %d, %d results", code, len(results))
	}
	for i, want := range []bool{true, false, true} {
		if results[i]["ok"] != want {
			t.Fatalf("insert line %d: ok=%v want %v (%v)", i, results[i]["ok"], want, results[i])
		}
	}
	// The michelin villagewok matched the zagat one.
	if m := results[0]["matched"].([]any); len(m) != 1 {
		t.Fatalf("villagewok matched %v", results[0]["matched"])
	}

	// Cluster lookup with merged record.
	code, cl := do(t, srv, "GET", "/v1/cluster?source=michelin&key=villagewok&key=minneapolis&merge=coalesce", "")
	if code != http.StatusOK {
		t.Fatalf("cluster: %d %v", code, cl)
	}
	if got := len(cl["members"].([]any)); got != 2 {
		t.Fatalf("cluster members %d, want 2", got)
	}
	merged := cl["merged"].(map[string]any)
	for attr, want := range map[string]string{
		"name": "villagewok", "cuisine": "chinese", "speciality": "hunan",
		"street": "wash ave", "city": "minneapolis", "phone": "612-0001",
	} {
		if merged[attr] != want {
			t.Fatalf("merged[%s] = %v, want %s", attr, merged[attr], want)
		}
	}

	// Transitive uniqueness violation over HTTP: matches goldenleaf via
	// (name, derived cuisine) and villagewok's cluster via phone.
	code, results = ndjson(t, srv, "POST", "/v1/insert",
		`{"source":"infatuation","tuple":["goldenleaf","uptown","hunan","612-0001"]}`)
	if code != http.StatusOK || len(results) != 1 || results[0]["ok"] != false {
		t.Fatalf("violation not rejected: %d %v", code, results)
	}
	if msg := results[0]["error"].(string); !strings.Contains(msg, "transitive uniqueness") {
		t.Fatalf("unexpected rejection: %s", msg)
	}

	// State rolled back: stats as before the rejected insert.
	code, stats := do(t, srv, "GET", "/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats["tuples"].(float64) != 4 || stats["matches"].(float64) != 1 || stats["clusters"].(float64) != 3 {
		t.Fatalf("stats after rollback: %v", stats)
	}

	// Cluster enumeration is deterministic and complete.
	code, clusters := ndjson(t, srv, "GET", "/v1/clusters", "")
	if code != http.StatusOK || len(clusters) != 3 {
		t.Fatalf("clusters: %d, %d lines", code, len(clusters))
	}
	if clusters[0]["id"] != "zagat/0" {
		t.Fatalf("first cluster %v", clusters[0]["id"])
	}
}

func TestServerIdentityRuleLinks(t *testing.T) {
	srv := newServer()
	do(t, srv, "POST", "/v1/sources", `{"name":"a","attrs":[{"name":"id"},{"name":"name"},{"name":"phone"}],"key":["id"]}`)
	do(t, srv, "POST", "/v1/sources", `{"name":"b","attrs":[{"name":"id"},{"name":"name"},{"name":"phone"}],"key":["id"]}`)
	code, out := do(t, srv, "POST", "/v1/links", `{"left":"a","right":"b",
		"attrs":[{"name":"id_a","left":"id"},{"name":"id_b","right":"id"},
		         {"name":"name","left":"name","right":"name"},{"name":"phone","left":"phone","right":"phone"}],
		"extkey":["name"],
		"identity":[{"name":"phone-match","eq":["phone"]}]}`)
	if code != http.StatusCreated {
		t.Fatalf("link: %d %v", code, out)
	}
	// a0 and b0 share no name but the identity rule pairs them on phone
	// — through the incremental (streaming) path. a0 commits in its own
	// request so the b0 match outcome is deterministic.
	ndjson(t, srv, "POST", "/v1/insert", `{"source":"a","tuple":["a0","alpha","555-1"]}`)
	_, results := ndjson(t, srv, "POST", "/v1/insert", `{"source":"b","tuple":["b0","beta","555-1"]}`)
	if results[0]["ok"] != true {
		t.Fatalf("insert: %v", results[0])
	}
	if m := results[0]["matched"].([]any); len(m) != 1 {
		t.Fatalf("identity-rule streaming match missed: %v", results[0])
	}
}

func TestServerTypedKeyLookup(t *testing.T) {
	// Key query parameters must be parsed with the key attributes'
	// declared kinds: an int-keyed source is unreachable if the server
	// compares string values against stored ints.
	srv := newServer()
	do(t, srv, "POST", "/v1/sources", `{"name":"a","attrs":[{"name":"id","kind":"int"},{"name":"name"}],"key":["id"]}`)
	do(t, srv, "POST", "/v1/sources", `{"name":"b","attrs":[{"name":"id","kind":"int"},{"name":"name"}],"key":["id"]}`)
	do(t, srv, "POST", "/v1/links", `{"left":"a","right":"b","extkey":["name"],"attrs":[
		{"name":"id_a","left":"id"},{"name":"id_b","right":"id"},{"name":"name","left":"name","right":"name"}]}`)
	ndjson(t, srv, "POST", "/v1/insert", `{"source":"a","tuple":[5,"alpha"]}`)
	_, results := ndjson(t, srv, "POST", "/v1/insert", `{"source":"b","tuple":[7,"alpha"]}`)
	if results[0]["ok"] != true {
		t.Fatalf("insert: %v", results[0])
	}
	code, cl := do(t, srv, "GET", "/v1/cluster?source=a&key=5", "")
	if code != http.StatusOK {
		t.Fatalf("int-key lookup: %d %v", code, cl)
	}
	if got := len(cl["members"].([]any)); got != 2 {
		t.Fatalf("cluster members %d, want 2", got)
	}
	// Wrong arity and unknown source are client errors, not panics.
	if code, _ := do(t, srv, "GET", "/v1/cluster?source=a&key=5&key=6", ""); code != http.StatusBadRequest {
		t.Fatalf("arity mismatch: %d", code)
	}
	if code, _ := do(t, srv, "GET", "/v1/cluster?source=zzz&key=5", ""); code != http.StatusNotFound {
		t.Fatalf("unknown source: %d", code)
	}
}

// TestInsertBodyCap pins the streaming ingest size cap: a body past
// -max-insert-body is truncated at the cap — lines before it are acked
// and committed, and the stream ends with a terminal error line instead
// of a whole-body 413 (headers are long gone by then).
func TestInsertBodyCap(t *testing.T) {
	srv := newServer()
	srv.maxInsertBody = 256
	do(t, srv, "POST", "/v1/sources", `{"name":"a","attrs":[{"name":"id"}],"key":["id"]}`)
	var b strings.Builder
	for i := 0; b.Len() < 1024; i++ {
		fmt.Fprintf(&b, `{"source":"a","tuple":["row-%d"]}`+"\n", i)
	}
	code, lines := ndjson(t, srv, "POST", "/v1/insert", b.String())
	if code != http.StatusOK || len(lines) == 0 {
		t.Fatalf("oversized insert body: %d, %d lines", code, len(lines))
	}
	last := lines[len(lines)-1]
	if last["terminal"] != true || !strings.Contains(last["error"].(string), "exceeds 256 bytes") {
		t.Fatalf("missing terminal cap error: %v", last)
	}
	acked := 0
	for _, ln := range lines[:len(lines)-1] {
		if ln["ok"] != true {
			t.Fatalf("pre-cap line not acked: %v", ln)
		}
		acked++
	}
	if acked == 0 {
		t.Fatalf("no lines acked before the cap: %v", lines)
	}
	// Every acked line is committed; nothing past the cap leaked in.
	if code, stats := do(t, srv, "GET", "/v1/stats", ""); code != http.StatusOK || stats["tuples"].(float64) != float64(acked) {
		t.Fatalf("committed tuples != acked lines (%d): %v", acked, stats)
	}
	// Control-plane bodies have their own (fixed) cap and still 413.
	huge := `{"name":"big","attrs":[{"name":"` + strings.Repeat("x", maxControlBody) + `"}]}`
	if code, _ := do(t, srv, "POST", "/v1/sources", huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized source body: %d", code)
	}
}

// TestFlagsRefusedAtStartup: a flag the configuration would never look
// at, or a value a default would quietly replace, stops the daemon with
// a message naming the flag; the flag sets CI and the benchmark start it
// with pass.
func TestFlagsRefusedAtStartup(t *testing.T) {
	for _, tc := range []struct {
		name, dataDir, store  string
		hot, snap, sync, conc int
		body                  int64
		refusal               string // "" = starts
	}{
		{name: "defaults"},
		{name: "durable, default store", dataDir: "d"},
		{name: "benchmark live_mixed", dataDir: "d", store: "mem"},
		{name: "benchmark read_cold", dataDir: "d", store: "disk", hot: 4096},
		{name: "disk at its default budget", dataDir: "d", store: "disk"},
		{name: "negative insert body", body: -1, refusal: "-max-insert-body"},
		{name: "0 for off, fsync every append", dataDir: "d", sync: 1},
		{name: "negative snapshot interval", dataDir: "d", snap: -1, refusal: "-snapshot-every must be >= 0"},
		{name: "negative sync interval", dataDir: "d", sync: -1, refusal: "-sync-every must be >= 0"},
		{name: "negative ingest concurrency", conc: -1, refusal: "-ingest-concurrency must be >= 0"},
		{name: "store without a data dir", store: "disk", refusal: "-data-dir"},
		{name: "resident store without a data dir", store: "mem", refusal: "-data-dir"},
		{name: "budget without a data dir", hot: 8, refusal: "-data-dir"},
		{name: "unknown store", dataDir: "d", store: "bogus", refusal: `-store must be mem or disk (got "bogus")`},
		{name: "unknown store without a data dir", store: "bogus", hot: -5, refusal: `-store must be mem or disk (got "bogus")`},
		{name: "negative budget", dataDir: "d", store: "disk", hot: -5, refusal: "-store-hot-clusters must be >= 0"},
		{name: "budget for the resident store", dataDir: "d", store: "mem", hot: 8, refusal: "-store-hot-clusters needs -store disk"},
		{name: "budget for the default store", dataDir: "d", hot: 8, refusal: "-store-hot-clusters needs -store disk"},
	} {
		err := checkFlags(tc.dataDir, tc.store, tc.hot, tc.snap, tc.sync, tc.conc, tc.body)
		switch {
		case tc.refusal == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.refusal != "" && (err == nil || !strings.Contains(err.Error(), tc.refusal)):
			t.Errorf("%s: checkFlags = %v, want a refusal naming %q", tc.name, err, tc.refusal)
		}
	}
}

// TestInsertClientDisconnect pins the mid-stream disconnect contract: a
// client that vanishes leaves the hub with exactly the acked prefix —
// the handler stops pulling, cancels the ingest stream, and exits
// without wedging any goroutine.
func TestInsertClientDisconnect(t *testing.T) {
	srv := newServer()
	do(t, srv, "POST", "/v1/sources", `{"name":"a","attrs":[{"name":"id"}],"key":["id"]}`)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ts.URL+"/v1/insert", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	// Feed a few lines, read their acks so we know they were committed,
	// then walk away mid-stream with the body still open.
	const fed = 3
	go func() {
		for i := 0; i < fed; i++ {
			fmt.Fprintf(pw, `{"source":"a","tuple":["row-%d"]}`+"\n", i)
		}
	}()
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < fed; i++ {
		if !sc.Scan() {
			t.Fatalf("ack %d never arrived: %v", i, sc.Err())
		}
		m := map[string]any{}
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil || m["ok"] != true {
			t.Fatalf("ack %d: %q (%v)", i, sc.Text(), err)
		}
	}
	resp.Body.Close()
	pw.CloseWithError(io.ErrClosedPipe)

	// The handler unwinds on its own; only the acked prefix is durable
	// state. Poll briefly: disconnect propagation is asynchronous.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, stats := do(t, srv, "GET", "/v1/stats", "")
		if code == http.StatusOK && stats["tuples"].(float64) == fed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("acked prefix not settled: %v", stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClustersAbortsOnDisconnect pins that a vanished client stops the
// enumeration: a request whose context is already canceled streams
// nothing.
func TestClustersAbortsOnDisconnect(t *testing.T) {
	srv := newServer()
	do(t, srv, "POST", "/v1/sources", `{"name":"a","attrs":[{"name":"id"}],"key":["id"]}`)
	ndjson(t, srv, "POST", "/v1/insert", `{"source":"a","tuple":["r0"]}`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/v1/clusters", nil).WithContext(ctx)
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, req)
	if body := strings.TrimSpace(rw.Body.String()); body != "" {
		t.Fatalf("canceled request still streamed: %q", body)
	}
}

// TestInsertRacesSourceRegistration pins that "which sources exist" has
// one owner: an insert racing its source's POST /v1/sources is accepted
// from the moment the hub has registered the source — which precedes
// the 201 — and so always once the 201 has been written. The sources
// are wide so that the handler's work after Hub.AddSource returns is
// long enough for the racing insert to land inside it.
func TestInsertRacesSourceRegistration(t *testing.T) {
	const width = 2000
	attrs := make([]string, width)
	nulls := make([]string, width-1)
	for i := range attrs {
		attrs[i] = fmt.Sprintf(`{"name":"a%d"}`, i)
	}
	for i := range nulls {
		nulls[i] = "null"
	}
	insert := func(srv *server, source, id string) map[string]any {
		t.Helper()
		_, res := ndjson(t, srv, "POST", "/v1/insert",
			fmt.Sprintf(`{"source":%q,"tuple":[%q,%s]}`, source, id, strings.Join(nulls, ",")))
		if len(res) != 1 {
			t.Fatalf("insert into %s: %v", source, res)
		}
		return res[0]
	}
	srv := newServer()
	srv.logf = func(string, ...any) {}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("s%d", i)
		created := make(chan struct{})
		go func() {
			defer close(created)
			req := httptest.NewRequest("POST", "/v1/sources",
				strings.NewReader(`{"name":"`+name+`","attrs":[`+strings.Join(attrs, ",")+`],"key":["a0"]}`))
			rw := httptest.NewRecorder()
			srv.ServeHTTP(rw, req)
			if rw.Code != http.StatusCreated {
				t.Errorf("register %s: %d %s", name, rw.Code, rw.Body.String())
			}
		}()
		for {
			if _, err := srv.hub.SourceSchema(name); err == nil {
				break
			}
			runtime.Gosched()
		}
		if res := insert(srv, name, "racing"); res["ok"] != true {
			t.Fatalf("insert into %s after the hub registered it: %v", name, res)
		}
		<-created
		if res := insert(srv, name, "after-201"); res["ok"] != true {
			t.Fatalf("insert into %s after its 201: %v", name, res)
		}
	}
}

// TestSourceKindSpellings is the daemon's column of internal/value's
// kindSpellings table: POST /v1/sources takes the four kind names
// exactly, reads a missing kind as string, and refuses everything else —
// the CSV header's aliases and case-folding included.
func TestSourceKindSpellings(t *testing.T) {
	srv := newServer()
	srv.logf = func(string, ...any) {}
	for i, tc := range []struct {
		spelling string
		want     value.Kind // KindNull: refused
	}{
		{"string", value.KindString}, {"int", value.KindInt}, {"float", value.KindFloat}, {"bool", value.KindBool},
		{"", value.KindString},
		{"str", value.KindNull}, {"integer", value.KindNull}, {"double", value.KindNull}, {"boolean", value.KindNull},
		{"String", value.KindNull}, {"INT", value.KindNull}, {" float ", value.KindNull}, {"Boolean", value.KindNull},
		{"null", value.KindNull}, {"NULL", value.KindNull}, {"number", value.KindNull}, {"text", value.KindNull}, {"kind(7)", value.KindNull},
	} {
		name := fmt.Sprintf("s%d", i)
		code, out := do(t, srv, "POST", "/v1/sources", fmt.Sprintf(`{"name":%q,"attrs":[{"name":"a","kind":%q}]}`, name, tc.spelling))
		if tc.want == value.KindNull {
			if code != http.StatusBadRequest {
				t.Errorf("kind %q: %d %v, want 400", tc.spelling, code, out)
			}
			continue
		}
		if code != http.StatusCreated {
			t.Errorf("kind %q: %d %v, want 201", tc.spelling, code, out)
			continue
		}
		if sch, err := srv.hub.SourceSchema(name); err != nil || sch.Attr(0).Kind != tc.want {
			t.Errorf("kind %q registered as %v (%v), want %v", tc.spelling, sch.Attr(0).Kind, err, tc.want)
		}
	}
}
