package main

// The one-line contract of POST /v1/insert, over a real socket with raw
// requests: a declared-length body holding exactly one line is answered
// directly (Content-Length, one write) and everything else streams
// (chunked), and the two differ in framing only — status, content type
// and body bytes of every outcome are the stream's.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"entityid"
)

// contractServer is the fixture every contract case starts from, so the
// direct and the streamed form of one body meet the same hub: sources a
// and b linked on name, a0 and b0 already matched (a second b named n1
// is a §3.2 rejection). maxBody > 0 lowers the body cap.
func contractServer(t *testing.T, maxBody int64) (*server, *httptest.Server) {
	t.Helper()
	srv := contractHub(t)
	if maxBody > 0 {
		srv.maxInsertBody = maxBody
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// contractHub is contractServer's fixture without a listener.
func contractHub(t testing.TB) *server {
	t.Helper()
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
	ndjson(t, srv, "POST", "/v1/insert", `{"source":"a","tuple":["a0","n1"]}`+"\n"+`{"source":"b","tuple":["b0","n1"]}`)
	return srv
}

// rawInsert writes one raw request to ts — head, then body, then (for a
// client that gives up mid-body) a half close — and reads the response.
func rawInsert(t *testing.T, ts *httptest.Server, head, body string, halfClose bool) (*http.Response, string) {
	t.Helper()
	c, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "POST /v1/insert HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"+head+"\r\n"+body); err != nil {
		t.Fatal(err)
	}
	if halfClose {
		if err := c.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response body: %v", err)
	}
	return resp, string(got)
}

func withLength(body string) string { return "Content-Length: " + strconv.Itoa(len(body)) + "\r\n" }

// chunked frames body as a chunked request in two chunks, splitting it
// mid-line.
func chunked(body string) string {
	var b strings.Builder
	for _, part := range []string{body[:len(body)/2], body[len(body)/2:]} {
		if part != "" {
			fmt.Fprintf(&b, "%x\r\n%s\r\n", len(part), part)
		}
	}
	return b.String() + "0\r\n\r\n"
}

func isChunked(resp *http.Response) bool {
	return len(resp.TransferEncoding) == 1 && resp.TransferEncoding[0] == "chunked"
}

func statsOf(t *testing.T, srv *server) string {
	t.Helper()
	_, st := do(t, srv, "GET", "/v1/stats", "")
	return fmt.Sprint(st)
}

// padLine is an insertable line of exactly n bytes.
func padLine(n int) string {
	const frame = `{"source":"a","tuple":["","pad"]}`
	return `{"source":"a","tuple":["` + strings.Repeat("x", n-len(frame)) + `","pad"]}`
}

func TestInsertOneLineContract(t *testing.T) {
	const ok = `{"source":"a","tuple":["a1","n2"]}`
	for _, tc := range []struct {
		name    string
		body    string
		maxBody int64
		direct  bool   // a declared length gets the direct answer
		want    string // substring of the response body
		commits bool
	}{
		{name: "one line", body: ok, direct: true, want: `"ok":true`, commits: true},
		{name: "trailing newline", body: ok + "\n", direct: true, want: `"ok":true`, commits: true},
		{name: "blank lines around", body: "\n \r\n\t" + ok + " \r\n\n  \n", direct: true, want: `"ok":true`, commits: true},
		{name: "matching line", body: `{"source":"a","tuple":["a1",null]}`, direct: true, want: `"matched":[]`, commits: true},
		{name: "two lines", body: ok + "\n" + `{"source":"b","tuple":["b1","n2"]}` + "\n", want: `"matched":[{"index":1,"source":"a"`, commits: true},
		{name: "blank body", body: " \n\n", want: ""},
		{name: "malformed JSON", body: `{"source":"a","tuple":["a1"`, direct: true, want: `"terminal":true`},
		{name: "malformed JSON after blanks", body: "\n\n" + `{"source":`, direct: true, want: `"error":"line 3: `},
		{name: "trailing garbage", body: ok + ` {}`, direct: true, want: `"terminal":true`},
		{name: "wrong arity", body: "\n" + `{"source":"a","tuple":["a1"]}`, direct: true, want: `"error":"line 2: source \"a\": 1 values, schema wants 2"`},
		{name: "unknown source", body: `{"source":"<z>","tuple":["a1"]}`, direct: true, want: `"error":"line 1: unknown source \"\u003cz\u003e\""`},
		{name: "3.2 rejection", body: `{"source":"b","tuple":["b1","n1"]}`, direct: true, want: `uniqueness violation: R tuple 0 already matched to S tuple 0","ok":false}`},
		{name: "duplicate key", body: `{"source":"a","tuple":["a0","n9"]}`, direct: true, want: `duplicates tuple 0","ok":false}`},
		{name: "over the body cap", body: padLine(100), maxBody: 64, want: `"error":"request body exceeds 64 bytes`},
		{name: "at the body cap", body: padLine(64), maxBody: 64, direct: true, want: `"ok":true`, commits: true},
		{name: "exactly the buffer", body: padLine(directInsertMax), direct: true, want: `"ok":true`, commits: true},
		{name: "the buffer plus one", body: padLine(directInsertMax + 1), want: `"ok":true`, commits: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srvD, tsD := contractServer(t, tc.maxBody)
			srvS, tsS := contractServer(t, tc.maxBody)
			before := statsOf(t, srvD)
			respD, bodyD := rawInsert(t, tsD, withLength(tc.body), tc.body, false)
			respS, bodyS := rawInsert(t, tsS, "Transfer-Encoding: chunked\r\n", chunked(tc.body), false)

			// The declared-length answer and the streamed one: same status,
			// content type and body bytes, same hub afterwards.
			if respD.StatusCode != 200 || respS.StatusCode != 200 {
				t.Fatalf("status: declared %d, chunked %d, want 200", respD.StatusCode, respS.StatusCode)
			}
			for _, resp := range []*http.Response{respD, respS} {
				if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
					t.Fatalf("content type %q", ct)
				}
			}
			if bodyD != bodyS {
				t.Fatalf("bodies differ:\ndeclared %q\n chunked %q", bodyD, bodyS)
			}
			if !strings.Contains(bodyD, tc.want) || (tc.want == "" && bodyD != "") {
				t.Fatalf("body %q, want it to contain %q", bodyD, tc.want)
			}
			if d, s := statsOf(t, srvD), statsOf(t, srvS); d != s || (d != before) != tc.commits {
				t.Fatalf("stats: declared %s, chunked %s, before %s (commits=%v)", d, s, before, tc.commits)
			}

			// Only the framing differs, and only for one declared line.
			if !isChunked(respS) {
				t.Fatalf("chunked request answered without chunking: %v", respS.Header)
			}
			if tc.direct {
				if isChunked(respD) || respD.Header.Get("Content-Length") != strconv.Itoa(len(bodyD)) {
					t.Fatalf("one declared line: want Content-Length %d and no Transfer-Encoding, got %v %v",
						len(bodyD), respD.Header, respD.TransferEncoding)
				}
				if strings.Count(bodyD, "\n") != 1 {
					t.Fatalf("direct answer is not one line: %q", bodyD)
				}
			} else if !isChunked(respD) {
				t.Fatalf("a stream after all, answered without chunking: %v", respD.Header)
			}
		})
	}
}

// TestInsertShortBodyCommitsNothing: a client that declares a length and
// never finishes sending gets the stream's terminal line, and nothing it
// did send is committed — even a complete line.
func TestInsertShortBodyCommitsNothing(t *testing.T) {
	srv, ts := contractServer(t, 0)
	before := statsOf(t, srv)
	sent := `{"source":"a","tuple":["a1","n2"]}` + "\n"
	resp, body := rawInsert(t, ts, "Content-Length: "+strconv.Itoa(len(sent)+40)+"\r\n", sent, true)
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("short body: %d %v", resp.StatusCode, resp.Header)
	}
	if body != `{"error":"unexpected EOF","ok":false,"terminal":true}`+"\n" {
		t.Fatalf("short body answered %q", body)
	}
	if after := statsOf(t, srv); after != before {
		t.Fatalf("short body committed: %s -> %s", before, after)
	}
}

var fsyncCountRe = regexp.MustCompile(`(?m)^wal_fsync_seconds_count (\d+)$`)

// fsyncs reads the process-wide WAL fsync count off /metrics.
func fsyncs(t *testing.T, srv *server) int {
	t.Helper()
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	m := fsyncCountRe.FindStringSubmatch(rw.Body.String())
	if m == nil {
		t.Fatal("/metrics has no wal_fsync_seconds_count")
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// TestInsertOneLineSyncsBeforeAck pins "acked ⇒ synced per -sync-every"
// on the direct path: with SyncEvery 100 and far fewer inserts, the only
// thing that can fsync is the flush epoch the handler closes between the
// commit and the ack — one per acked line, none for a rejected one.
func TestInsertOneLineSyncsBeforeAck(t *testing.T) {
	h, err := entityid.OpenHub(t.TempDir(), entityid.WithSyncEvery(100))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	srv := newServerFor(h)
	srv.logf = func(string, ...any) {}
	if code, out := do(t, srv, "POST", "/v1/sources", `{"name":"a","attrs":[{"name":"id"}],"key":["id"]}`); code != 201 {
		t.Fatalf("source: %d %v", code, out)
	}
	for i := 0; i < 5; i++ {
		before := fsyncs(t, srv)
		_, acks := ndjson(t, srv, "POST", "/v1/insert", fmt.Sprintf(`{"source":"a","tuple":["row-%d"]}`, i))
		if len(acks) != 1 || acks[0]["ok"] != true {
			t.Fatalf("insert %d: %v", i, acks)
		}
		if got := fsyncs(t, srv) - before; got != 1 {
			t.Fatalf("acked one-line insert %d: %d fsyncs before the ack, want 1", i, got)
		}
	}
	before := fsyncs(t, srv)
	for _, line := range []string{
		`{"source":"a","tuple":["row-0"]}`, // duplicate key: hub rejection
		`{"source":"a","tuple":[]}`,        // tuple error
		`{"source":"a"`,                    // framing error
	} {
		if _, acks := ndjson(t, srv, "POST", "/v1/insert", line); len(acks) != 1 || acks[0]["ok"] != false {
			t.Fatalf("%s: %v", line, acks)
		}
	}
	if got := fsyncs(t, srv) - before; got != 0 {
		t.Fatalf("rejected lines caused %d fsyncs", got)
	}
}
