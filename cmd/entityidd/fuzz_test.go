package main

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzInsertBody throws arbitrary bytes at POST /v1/insert twice, each
// time at a fresh copy of the contract fixture: once with a declared
// length, so a small one-line body takes the direct path (soleLine,
// insertOne), and once without one, so the same bytes must stream
// (insertStream). The two forms differ in response framing only: status,
// result lines and the hub they leave — the clusters it serves, and that
// its invariants hold — must be the same.
func FuzzInsertBody(f *testing.F) {
	const ok = `{"source":"a","tuple":["a1","n2"]}`
	for _, seed := range []string{
		ok, ok + "\n", "\n \r\n\t" + ok + " \r\n\n  \n", `{"source":"a","tuple":["a1",null]}`,
		ok + "\n" + `{"source":"b","tuple":["b1","n2"]}` + "\n", " \n\n", "", `{"source":"a","tuple":["a1"`,
		"\n\n" + `{"source":`, ok + ` {}`, "\n" + `{"source":"a","tuple":["a1"]}`, `{"source":"<z>","tuple":["a1"]}`,
		`{"source":"b","tuple":["b1","n1"]}`, `{"source":"a","tuple":["a0","dup"]}`, "\xff\xfe" + ok, ok + "\r" + ok,
		`{"source":"a","tuple":["a1",7]}`, `[1]`, `null`, `{"source":"a","tuple":["` + strings.Repeat("x", 5000) + `","n"]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		post := func(declared bool) (int, string, string) {
			srv := contractHub(t)
			// A reader NewRequest cannot size: no declared length, as a
			// chunked body arrives.
			req := httptest.NewRequest("POST", "/v1/insert", io.NopCloser(bytes.NewReader(body)))
			if declared {
				req.ContentLength = int64(len(body))
			}
			rw := httptest.NewRecorder()
			srv.ServeHTTP(rw, req)
			if err := srv.hub.CheckInvariants(); err != nil {
				t.Fatalf("declared=%v: %v", declared, err)
			}
			scan := httptest.NewRecorder()
			srv.ServeHTTP(scan, httptest.NewRequest("GET", "/v1/clusters", nil))
			return rw.Code, rw.Body.String(), scan.Body.String()
		}
		codeD, linesD, hubD := post(true)
		codeS, linesS, hubS := post(false)
		if codeD != codeS || linesD != linesS {
			t.Fatalf("with a declared length: %d %q\nstreamed:               %d %q", codeD, linesD, codeS, linesS)
		}
		if hubD != hubS {
			t.Fatalf("the two forms left different hubs:\n%s\n%s", hubD, hubS)
		}
	})
}
