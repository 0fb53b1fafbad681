package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// envelopeCases are lines whose envelope encoding/json reads in every way
// it can: key order, whitespace, escaped and case-folded names, unknown
// and duplicate keys, null and mistyped fields, nesting, and malformed
// bytes. sure marks the lines the scanner must settle itself.
var envelopeCases = []struct {
	line string
	sure bool
}{
	{`{"source":"a","tuple":["a1","n2"]}`, true},
	{` {"tuple" : [ "a1" , 2.5e-3 , true , null , {"k":[]} ] ,` + "\t\r\n" + `"source":"a"} `, true},
	{`{"note":{"a":[1,-0,0.5,1E+9]},"source":"a","tuple":[]}`, true},
	{`{"Source":"a","TUPLE":["x"]}`, true},
	{`{"ſource":"a","tuple":["x"]}`, true},
	{`{"source":"a","source":"b","tuple":[1],"tuple":[2]}`, true},
	{`{"source":"a","source":null}`, true},
	{`{"source":"a","tuple":null}`, true},
	{`{"source":"Ünïcode","tuple":["ü\n\"x\""]}`, true},
	{`{}`, true},
	{`{"source":"a","tuple":"not an array"}`, true},
	{`{"\u0073ource":"a","tuple":["x"]}`, false},
	{`{"source":"\u0061","tuple":["x"]}`, false},
	{`{"source":"a\"b","tuple":["x"]}`, false},
	{`{"source":"` + "\xff" + `","tuple":["x"]}`, false},
	{`{"source":1,"tuple":["x"]}`, false},
	{`{"source":["a"],"tuple":["x"]}`, false},
	{`null`, false},
	{`["a"]`, false},
	{`"a"`, false},
	{``, false},
	{`{"source":"a","tuple":[` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `]}`, false},
	{`{"source":"a","tuple":["a1"`, false},
	{`{"source":"a","tuple":["a1"]} {}`, false},
	{`{"source":"a","tuple":[01]}`, false},
	{`{"source":"a","tuple":[1.]}`, false},
	{`{"source":"a","tuple":[.5]}`, false},
	{`{"source":"a","tuple":[1e]}`, false},
	{`{"source":"a","tuple":[tru]}`, false},
	{`{"source":"a","tuple":[true1]}`, false},
	{`{"source":"a","tuple":["a` + "\n" + `b"]}`, false},
	{`{"source":"a","tuple":["\x"]}`, false},
	{`{"source":"a","tuple":["\u12"]}`, false},
	{`{"source":"a","tuple":[1,]}`, false},
	{`{"source":"a",}`, false},
	{`{"source" "a"}`, false},
	{`{source:"a"}`, false},
	{"\xef\xbb\xbf" + `{"source":"a"}`, false},
}

// TestReadEnvelope holds readEnvelope to json.Unmarshal on every case,
// and has the scanner settle the lines a client writes.
func TestReadEnvelope(t *testing.T) {
	for _, c := range envelopeCases {
		if _, sure := scanEnvelope([]byte(c.line)); sure != c.sure {
			t.Errorf("%q: scanner settles it: %v, want %v", c.line, sure, c.sure)
		}
		sameAsJSON(t, []byte(c.line))
	}
}

// FuzzEnvelope holds the envelope reader to encoding/json: the same
// accept or refuse, the same source and tuple bytes, and a line the
// scanner settles is one encoding/json accepts.
func FuzzEnvelope(f *testing.F) {
	for _, c := range envelopeCases {
		f.Add([]byte(c.line))
	}
	f.Fuzz(sameAsJSON)
}

// sameAsJSON fails t unless readEnvelope and scanEnvelope read line as
// json.Unmarshal does.
func sameAsJSON(t *testing.T, line []byte) {
	t.Helper()
	var want insertLine
	wantErr := json.Unmarshal(line, &want)
	got, err := readEnvelope(line)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%q: readEnvelope err %v, json.Unmarshal err %v", line, err, wantErr)
	}
	if got.Source != want.Source || !bytes.Equal(got.Tuple, want.Tuple) || (got.Tuple == nil) != (want.Tuple == nil) {
		t.Fatalf("%q: read %q %q, json.Unmarshal reads %q %q", line, got.Source, got.Tuple, want.Source, want.Tuple)
	}
	if scanned, sure := scanEnvelope(line); sure {
		if wantErr != nil || scanned.Source != want.Source || !bytes.Equal(scanned.Tuple, want.Tuple) || (scanned.Tuple == nil) != (want.Tuple == nil) {
			t.Fatalf("%q: the scanner settled %q %q, json.Unmarshal reads %q %q (%v)", line, scanned.Source, scanned.Tuple, want.Source, want.Tuple, wantErr)
		}
	}
}
