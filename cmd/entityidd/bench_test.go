package main

// The front-end's own benchmarks: what one request costs through a real
// socket, handler and hub, beside the layer benchmarks under internal/.
// Client and server share the process, so allocs/op counts both sides —
// compare a change with its parent, not with a hub benchmark.
//
//	go test -run=NONE -bench=. -benchmem -count=10 ./cmd/entityidd

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"entityid"
)

// benchServer serves a WAL-backed hub with sources a and b linked on
// name over loopback, preloaded with n matched pairs (a/r<i> and b/r<i>
// share name n<i>). No background snapshots, as in live_mixed: the
// snapshot writer would otherwise be a third of the profile.
func benchServer(b *testing.B, n int) *benchConn {
	b.Helper()
	h, err := entityid.OpenHub(b.TempDir(), entityid.WithSnapshotEvery(0))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { h.Close() })
	srv := newServerFor(h)
	srv.logf = func(string, ...any) {}
	for _, name := range []string{"a", "b"} {
		if code, out := do(b, srv, "POST", "/v1/sources", `{"name":"`+name+`","attrs":[{"name":"id"},{"name":"name"},{"name":"phone"}],"key":["id"]}`); code != 201 {
			b.Fatalf("source %s: %d %v", name, code, out)
		}
	}
	if code, out := do(b, srv, "POST", "/v1/links", `{"left":"a","right":"b","extkey":["name"],"attrs":[
		{"name":"id_a","left":"id"},{"name":"id_b","right":"id"},{"name":"name","left":"name","right":"name"},
		{"name":"phone","left":"phone","right":"phone"}]}`); code != 201 {
		b.Fatalf("link: %d %v", code, out)
	}
	if n > 0 {
		var body strings.Builder
		for i := 0; i < 2*n; i++ {
			body.WriteString(benchLine(i))
			body.WriteByte('\n')
		}
		if _, acks := ndjson(b, srv, "POST", "/v1/insert", body.String()); len(acks) != 2*n || acks[2*n-1]["ok"] != true {
			b.Fatalf("preload: %d acks", len(acks))
		}
	}
	ts := httptest.NewServer(srv)
	b.Cleanup(ts.Close)
	c, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return &benchConn{c: c, br: bufio.NewReader(c)}
}

// benchLine is insert i of the benchmark stream: even ones go to a, odd
// ones to b and match the a before them.
func benchLine(i int) string {
	return fmt.Sprintf(`{"source":%q,"tuple":["r%d","n%d","612-%07d"]}`, "ab"[i%2:i%2+1], i/2, i/2, i/2)
}

// benchConn is one keep-alive connection driven with rendered requests.
type benchConn struct {
	c  net.Conn
	br *bufio.Reader
}

// do writes one request and reads its whole response, returning the
// body's length.
func (c *benchConn) do(b *testing.B, req string) int64 {
	if _, err := io.WriteString(c.c, req); err != nil {
		b.Fatal(err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		b.Fatal(err)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil || resp.StatusCode != 200 {
		b.Fatalf("status %d: %v", resp.StatusCode, err)
	}
	return n
}

// BenchmarkInsertLine is live_mixed's unit of work: one line per POST,
// declared length, acked after the WAL append.
func BenchmarkInsertLine(b *testing.B) {
	c := benchServer(b, 0)
	reqs := make([]string, b.N)
	for i := range reqs {
		line := benchLine(i)
		reqs[i] = fmt.Sprintf("POST /v1/insert HTTP/1.1\r\nHost: b\r\nContent-Type: application/x-ndjson\r\nContent-Length: %d\r\n\r\n%s", len(line), line)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, req := range reqs {
		c.do(b, req)
	}
}

// BenchmarkClusterRead is a point read of a two-member cluster.
func BenchmarkClusterRead(b *testing.B) {
	const n = 2000
	c := benchServer(b, n)
	reqs := make([]string, n)
	for i := range reqs {
		reqs[i] = fmt.Sprintf("GET /v1/cluster?source=b&key=r%d HTTP/1.1\r\nHost: b\r\n\r\n", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.do(b, reqs[i%n])
	}
}

// BenchmarkClustersScan is a full enumeration of n two-member clusters
// per iteration: 2,000, a working set that fits in cache, and 100,000,
// one that does not, as a live_mixed scan's does not. Each hub is built
// once, on the first round of its case, and lives as long as the whole
// benchmark.
func BenchmarkClustersScan(b *testing.B) {
	for _, n := range []int{2000, 100_000} {
		var c *benchConn
		b.Run(fmt.Sprintf("clusters=%d", n), func(sb *testing.B) {
			if c == nil {
				c = benchServer(b, n)
			}
			sb.ReportAllocs()
			sb.ResetTimer()
			for i := 0; i < sb.N; i++ {
				if got := c.do(sb, "GET /v1/clusters HTTP/1.1\r\nHost: b\r\n\r\n"); got < int64(n) {
					sb.Fatalf("scan body of %d bytes", got)
				}
			}
			sb.ReportMetric(float64(n)*float64(sb.N)/sb.Elapsed().Seconds(), "clusters/s")
		})
	}
}
