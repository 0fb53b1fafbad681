package main

// /v1/clusters framing: the handler renders lines into one buffer and
// writes it whenever it passes clustersWriteBytes. Against the lines one
// render per cluster gives, a scan spanning several such buffers must
// serve the same bytes — whole, paged, resumed — and stop where its
// client left.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

// scanWriter records the size of every body write, and runs onWrite
// after each.
type scanWriter struct {
	*httptest.ResponseRecorder
	writes  []int
	onWrite func()
}

func (w *scanWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseRecorder.Write(b)
	w.writes = append(w.writes, n)
	if w.onWrite != nil {
		w.onWrite()
	}
	return n, err
}

func TestClustersScanFraming(t *testing.T) {
	srv := newServer()
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
	// 1200 tuples of a, every other one matched by a tuple of b: 1200
	// clusters, pairs and singletons in turn.
	var body strings.Builder
	for i := 0; i < 1200; i++ {
		fmt.Fprintf(&body, "{\"source\":\"a\",\"tuple\":[\"a%d\",\"n%d\"]}\n", i, i)
		if i%2 == 0 {
			fmt.Fprintf(&body, "{\"source\":\"b\",\"tuple\":[\"b%d\",\"n%d\"]}\n", i, i)
		}
	}
	if _, acks := ndjson(t, srv, "POST", "/v1/insert", body.String()); len(acks) != 1800 || acks[1799]["ok"] != true {
		t.Fatalf("load: %d acks, last %v", len(acks), acks[len(acks)-1])
	}
	clusters := srv.hub.Clusters()
	lines := make([]string, len(clusters))
	total := 0
	for i, cl := range clusters {
		lines[i] = string(srv.appendCluster(nil, cl, "")) + "\n"
		total += len(lines[i])
	}
	if total < 3*clustersWriteBytes {
		t.Fatalf("the scan is %d bytes, under three write buffers", total)
	}
	scan := func(path string, onWrite func(cancel func())) *scanWriter {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		w := &scanWriter{ResponseRecorder: httptest.NewRecorder()}
		if onWrite != nil {
			w.onWrite = func() { onWrite(cancel) }
		}
		srv.ServeHTTP(w, httptest.NewRequest("GET", path, nil).WithContext(ctx))
		if w.Code != 200 {
			t.Fatalf("GET %s: %d %s", path, w.Code, w.Body)
		}
		return w
	}
	same := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: %d bytes differ from the %d of one line per cluster", what, len(got), len(want))
		}
	}

	// The whole scan: every write but the last carries at least a buffer
	// of whole lines.
	w := scan("/v1/clusters", nil)
	same("full scan", w.Body.String(), strings.Join(lines, ""))
	if len(w.writes) < 3 {
		t.Fatalf("a %d-byte scan went out in %d writes", total, len(w.writes))
	}
	for i, off := 0, 0; i < len(w.writes); i++ {
		off += w.writes[i]
		if (i < len(w.writes)-1 && w.writes[i] < clustersWriteBytes) || w.Body.String()[off-1] != '\n' {
			t.Fatalf("write %d of %v: %d bytes, ending at byte %d", i, w.writes, w.writes[i], off)
		}
	}

	// A page cut inside its second buffer: every line it holds, then the
	// cursor line.
	const page = 400
	if first := len(strings.Join(lines[:page], "")); first < clustersWriteBytes || first > 2*clustersWriteBytes {
		t.Fatalf("a page of %d lines is %d bytes: not inside the second buffer", page, first)
	}
	w = scan(fmt.Sprintf("/v1/clusters?limit=%d", page), nil)
	same("limit page", w.Body.String(), strings.Join(lines[:page], "")+`{"next_cursor":"`+clusters[page-1].ID+"\"}\n")

	// Resuming after the page, by offset and by cursor.
	w = scan(fmt.Sprintf("/v1/clusters?offset=%d", page), nil)
	same("offset resume", w.Body.String(), strings.Join(lines[page:], ""))
	w = scan("/v1/clusters?cursor="+clusters[page-1].ID, nil)
	same("cursor resume", w.Body.String(), strings.Join(lines[page:], ""))

	// A client gone after the first write: nothing more is written, and
	// what was is a prefix of whole lines.
	w = scan("/v1/clusters", func(cancel func()) { cancel() })
	if len(w.writes) != 1 || !strings.HasPrefix(strings.Join(lines, ""), w.Body.String()) || !strings.HasSuffix(w.Body.String(), "\n") {
		t.Fatalf("a scan whose client left at its first write wrote %v: %d bytes", w.writes, w.Body.Len())
	}
}
