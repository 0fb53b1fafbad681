package main

// What POST /v1/insert accepts as a tuple, row by row: written against
// the reflective decoder ([]any, then jsonToValue/value.Parse per value)
// and passing on it unchanged, so the schema-aware tuple codec that
// replaced it is held to the same table through the same door,
// decodeLine.

import (
	"fmt"
	"math"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"entityid"
	"entityid/internal/relation"
	"entityid/internal/value"
)

// wireServer has one source, w(s string, i int, f float, b bool).
func wireServer(t testing.TB) *server {
	t.Helper()
	srv := newServer()
	srv.logf = func(string, ...any) {}
	if code, out := do(t, srv, "POST", "/v1/sources", `{"name":"w","attrs":[
		{"name":"s"},{"name":"i","kind":"int"},{"name":"f","kind":"float"},{"name":"b","kind":"bool"}],"key":["s"]}`); code != 201 {
		t.Fatalf("source: %d %v", code, out)
	}
	return srv
}

// sameValue is value.Identical that also tells NaN from a number and
// the two zeros apart.
func sameValue(a, b value.Value) bool {
	if a.Kind() == value.KindFloat && b.Kind() == value.KindFloat {
		return math.Float64bits(a.FloatVal()) == math.Float64bits(b.FloatVal()) ||
			math.IsNaN(a.FloatVal()) && math.IsNaN(b.FloatVal())
	}
	return value.Identical(a, b)
}

func TestWireAcceptance(t *testing.T) {
	srv := wireServer(t)
	S, I, F, B, null := value.String, value.Int, value.Float, value.Bool, value.Null
	base := entityid.Tuple{S("x"), I(1), F(1.5), B(true)}
	// at is base with column col replaced.
	at := func(col int, v value.Value) entityid.Tuple {
		t := base.Clone()
		t[col] = v
		return t
	}
	slot := func(col int, lit string) string {
		cols := []string{`"x"`, `1`, `1.5`, `true`}
		cols[col] = lit
		return "[" + strings.Join(cols, ",") + "]"
	}
	type row struct {
		tuple string
		want  entityid.Tuple // nil: refused, with
		err   string         // this in the message
	}
	rows := []row{
		{`["x",1,1.5,true]`, base, ""},
		{` [ "x" ,	1 , 1.5,true ] `, base, ""},
		{`[null,null,null,null]`, entityid.Tuple{null, null, null, null}, ""},
		{`[]`, nil, `source "w": 0 values, schema wants 4`},
		{`null`, nil, `source "w": 0 values, schema wants 4`},
		{`["x",1,1.5]`, nil, `source "w": 3 values, schema wants 4`},
		{`["x",1,1.5,true,"]",6]`, nil, `values, schema wants 4`},
		{`[["x"],1,1.5,true]`, nil, `source "w": attribute "s": `},
		{`[{"x":1},1,1.5,true]`, nil, `source "w": attribute "s": `},
		{`["x",[1],1.5,true]`, nil, `source "w": attribute "i": `},

		// A string attribute: any JSON string, escapes decoded the way
		// encoding/json decodes them; "" and "null" in any case are NULL.
		{slot(0, `""`), at(0, null), ""},
		{slot(0, `"null"`), at(0, null), ""},
		{slot(0, `"NULL"`), at(0, null), ""},
		{slot(0, `"nUlL"`), at(0, null), ""},
		{slot(0, `"nullx"`), at(0, S("nullx")), ""},
		{slot(0, `" "`), at(0, S(" ")), ""},
		{slot(0, `"a\"b\\c\/d\b\f\n\r\t"`), at(0, S("a\"b\\c/d\b\f\n\r\t")), ""},
		{slot(0, "\"\u00e9\u2028\u2029<>&\""), at(0, S("\u00e9\u2028\u2029<>&")), ""},
		{slot(0, `"\u00e9\u2028\u0026"`), at(0, S("\u00e9\u2028&")), ""},
		{slot(0, `"😀"`), at(0, S("😀")), ""},
		{slot(0, `"\ud800"`), at(0, S("�")), ""},
		{slot(0, `"\ud800x"`), at(0, S("�x")), ""},
		{slot(0, `"\udc00"`), at(0, S("�")), ""},
		{slot(0, `"\ud800A"`), at(0, S("�A")), ""},
		{slot(0, "\"a\xffb\""), at(0, S("a�b")), ""},
		{slot(0, `"\u0000\u001F"`), at(0, S("\x00\x1f")), ""},
		{slot(0, `1`), nil, `attribute "s": number 1 for string attribute`},
		{slot(0, `true`), nil, `attribute "s": bool for string attribute`},

		// An int attribute: a JSON number that is a whole number in
		// int64, however spelled, or a string strconv.ParseInt reads.
		{slot(1, `0`), at(1, I(0)), ""},
		{slot(1, `-0`), at(1, I(0)), ""},
		{slot(1, `-17`), at(1, I(-17)), ""},
		{slot(1, `3.0`), at(1, I(3)), ""},
		{slot(1, `1e3`), at(1, I(1000)), ""},
		{slot(1, `1E+3`), at(1, I(1000)), ""},
		{slot(1, `12.5e1`), at(1, I(125)), ""},
		{slot(1, `9007199254740992`), at(1, I(1<<53)), ""},
		{slot(1, `-9223372036854775808`), at(1, I(math.MinInt64)), ""},
		{slot(1, `9223372036854775808`), nil, `attribute "i": integer 9.223372036854776e+18 overflows int64`},
		{slot(1, `-9223372036854777856`), nil, `overflows int64`},
		{slot(1, `1e300`), nil, `attribute "i": integer 1e+300 overflows int64`},
		{slot(1, `1.5`), nil, `attribute "i": non-integer 1.5 for int attribute`},
		{slot(1, `-0.25`), nil, `non-integer -0.25 for int attribute`},
		{slot(1, `"42"`), at(1, I(42)), ""},
		{slot(1, `"-9223372036854775808"`), at(1, I(math.MinInt64)), ""},
		{slot(1, `"9223372036854775807"`), at(1, I(math.MaxInt64)), ""},
		{slot(1, `"+7"`), at(1, I(7)), ""},
		{slot(1, `""`), at(1, null), ""},
		{slot(1, `"Null"`), at(1, null), ""},
		{slot(1, `"4.0"`), nil, `attribute "i": value: parse int "4.0"`},
		{slot(1, `"9223372036854775808"`), nil, `value: parse int`},
		{slot(1, `true`), nil, `attribute "i": bool for int attribute`},

		// A float attribute: any JSON number, or a string
		// strconv.ParseFloat reads — which is how the non-finite ones,
		// that JSON cannot spell, arrive and are served.
		{slot(2, `1`), at(2, F(1)), ""},
		{slot(2, `0`), at(2, F(0)), ""},
		{slot(2, `-0`), at(2, F(math.Copysign(0, -1))), ""},
		{slot(2, `-0.0`), at(2, F(math.Copysign(0, -1))), ""},
		{slot(2, `2.5e-300`), at(2, F(2.5e-300)), ""},
		{slot(2, `1e21`), at(2, F(1e21)), ""},
		{slot(2, `5e-324`), at(2, F(5e-324)), ""},
		{slot(2, `1e-400`), at(2, F(0)), ""},
		{slot(2, `0.1`), at(2, F(0.1)), ""},
		{slot(2, `"NaN"`), at(2, F(math.NaN())), ""},
		{slot(2, `"+Inf"`), at(2, F(math.Inf(1))), ""},
		{slot(2, `"-Inf"`), at(2, F(math.Inf(-1))), ""},
		{slot(2, `"inf"`), at(2, F(math.Inf(1))), ""},
		{slot(2, `"1e3"`), at(2, F(1000)), ""},
		{slot(2, `""`), at(2, null), ""},
		{slot(2, `"null"`), at(2, null), ""},
		{slot(2, `"abc"`), nil, `attribute "f": value: parse float "abc"`},
		{slot(2, `false`), nil, `attribute "f": bool for float attribute`},

		// A bool attribute: true, false, or a string strconv.ParseBool
		// reads.
		{slot(3, `false`), at(3, B(false)), ""},
		{slot(3, `"true"`), at(3, B(true)), ""},
		{slot(3, `"F"`), at(3, B(false)), ""},
		{slot(3, `"1"`), at(3, B(true)), ""},
		{slot(3, `""`), at(3, null), ""},
		{slot(3, `"NULL"`), at(3, null), ""},
		{slot(3, `"yes"`), nil, `attribute "b": value: parse bool "yes"`},
		{slot(3, `1`), nil, `attribute "b": number 1 for bool attribute`},
		{slot(3, `0.5`), nil, `attribute "b": number 0.5 for bool attribute`},
	}
	// Every row is read into one set of blocks, as a stream's lines are:
	// each tuple read stays as it was read while the rows after it are.
	var blocks relation.TupleBlocks
	type read struct {
		line string
		t    relation.Tuple
		kept relation.Tuple
	}
	var reads []read
	for _, r := range rows {
		line := `{"source":"w","tuple":` + r.tuple + `}`
		ins, terminal, err := srv.decodeLine([]byte(line), &blocks)
		if err == nil {
			reads = append(reads, read{line, ins.Tuple, ins.Tuple.Clone()})
		}
		switch {
		case terminal:
			t.Errorf("%s: a tuple's own error ended the stream: %v", line, err)
		case r.want == nil && (err == nil || !strings.Contains(err.Error(), r.err)):
			t.Errorf("%s: got %v %v, want a refusal saying %q", line, ins.Tuple, err, r.err)
		case r.want != nil && err != nil:
			t.Errorf("%s: refused (%v), want %v", line, err, r.want)
		case r.want != nil:
			ok := ins.Source == "w" && len(ins.Tuple) == len(r.want)
			for i := 0; ok && i < len(r.want); i++ {
				ok = sameValue(ins.Tuple[i], r.want[i])
			}
			if !ok {
				t.Errorf("%s: read as %q %v, want %v", line, ins.Source, ins.Tuple, r.want)
			}
		}
	}
	for _, r := range reads {
		if !slices.EqualFunc(r.t, r.kept, sameValue) {
			t.Errorf("%s: read as %v, later lines left it %v", r.line, r.kept, r.t)
		}
	}

	// The line around the tuple: key order and unknown keys are free, a
	// missing tuple is an empty one, an unknown source is the line's own
	// error, and anything that is not one JSON object ends the stream.
	for _, c := range []struct {
		line     string
		terminal bool
		err      string
	}{
		{`{"tuple":["x",1,1.5,true],"note":{"a":[1]},"source":"w"}`, false, ""},
		{`{"source":"w"}`, false, `source "w": 0 values, schema wants 4`},
		{`{"source":"nope","tuple":["x"]}`, false, `unknown source "nope"`},
		{`{"tuple":["x"]}`, false, `unknown source ""`},
		{`{"source":"w","tuple":["x",1,1.5,true]`, true, ""},
		{`{"source":"w","tuple":["x",1,1.5,true]} {}`, true, ""},
		{`{"source":"w","tuple":["x",01,1.5,true]}`, true, ""},
		{`{"source":"w","tuple":["x",1,1.5,tru]}`, true, ""},
		{`{"source":"w","tuple":["a` + "\n" + `b",1,1.5,true]}`, true, ""},
		{`{"source":"w","tuple":["\x",1,1.5,true]}`, true, ""},
		{`{"source":"w","tuple":["x",1,1.5,true,]}`, true, ""},
		{`["x"]`, true, ""},
	} {
		_, terminal, err := srv.decodeLine([]byte(c.line), new(relation.TupleBlocks))
		if terminal != c.terminal || (err == nil) != (c.err == "" && !c.terminal) || err != nil && !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: terminal=%v err=%v, want terminal=%v %q", c.line, terminal, err, c.terminal, c.err)
		}
	}

	// A string is accepted whatever its bytes, so no byte in one may
	// decide a key: two tuples that differ column by column — though a key
	// joined with "\x1f" and the kind prefix "s:" would read the same for
	// both — neither match on the extended key {name, cuisine} nor collide
	// on a's candidate key (name, street).
	for _, body := range []string{
		`{"name":"a","attrs":[{"name":"name"},{"name":"street"},{"name":"cuisine"}],"key":["name","street"]}`,
		`{"name":"b","attrs":[{"name":"id"},{"name":"name"},{"name":"cuisine"}],"key":["id"]}`,
	} {
		if code, out := do(t, srv, "POST", "/v1/sources", body); code != 201 {
			t.Fatalf("source: %d %v", code, out)
		}
	}
	if code, out := do(t, srv, "POST", "/v1/links", `{"left":"a","right":"b","extkey":["name","cuisine"],"attrs":[
		{"name":"name","left":"name","right":"name"},{"name":"cuisine","left":"cuisine","right":"cuisine"}]}`); code != 201 {
		t.Fatalf("link: %d %v", code, out)
	}
	for _, c := range []struct {
		line    string
		matched int
	}{
		{`{"source":"a","tuple":["x\u001fs:y","1 Elm St.","z"]}`, 0},
		{`{"source":"b","tuple":["b0","x","y\u001fs:z"]}`, 0}, // not a/0: another name, another cuisine
		{`{"source":"b","tuple":["b1","x\u001fs:y","z"]}`, 1}, // a/0, column for column
		{`{"source":"a","tuple":["p\u001fs:q","r","thai"]}`, 0},
		{`{"source":"a","tuple":["p","q\u001fs:r","thai"]}`, 0}, // another key than (p␟s:q, r)
	} {
		_, acks := ndjson(t, srv, "POST", "/v1/insert", c.line)
		if len(acks) != 1 || acks[0]["ok"] != true {
			t.Errorf("%s: %v, want it accepted", c.line, acks)
		} else if m := acks[0]["matched"].([]any); len(m) != c.matched {
			t.Errorf("%s: matched: %v, want %d partners", c.line, m, c.matched)
		}
	}
}

// TestJSONToValueIntRange pins the guards on a JSON number bound for an
// int attribute: a non-integral value, a value beyond int64 (2^63 is the
// first) and the next float64 below -2^63 are refused; every whole number
// in range is read exactly, in whatever notation it arrives.
func TestJSONToValueIntRange(t *testing.T) {
	srv := wireServer(t)
	read := func(lit string) (value.Value, error) {
		ins, _, err := srv.decodeLine([]byte(`{"source":"w","tuple":["k",`+lit+`,null,null]}`), new(relation.TupleBlocks))
		if err != nil {
			return value.Null, err
		}
		return ins.Tuple[1], nil
	}
	for _, v := range []float64{0, 1, -1, 1 << 53, -(1 << 53), -9223372036854775808} {
		for _, lit := range []string{fmt.Sprintf("%.0f", v), fmt.Sprintf("%.1f", v), strconv.FormatFloat(v, 'e', -1, 64)} {
			got, err := read(lit)
			if err != nil || got.Kind() != value.KindInt || got.IntVal() != int64(v) {
				t.Fatalf("%s read as %v (%v), want %d", lit, got, err, int64(v))
			}
		}
	}
	for _, lit := range []string{
		"9223372036854775808",  // 2^63: first value past int64
		"-9223372036854777856", // next float64 below -2^63
		"1e300", "-1e300", "1.5", "-0.25",
	} {
		if got, err := read(lit); err == nil {
			t.Fatalf("%s accepted as %v", lit, got)
		}
	}
}

// TestInsertIntegerExactBeyond2to53: an integer on the wire is read from
// its digits, not through float64 — which holds only every second integer
// past 2^53, every 1024th near the int64 extremes — so it is stored and
// served as sent, up to the whole of int64; past that the overflow
// refusal stands.
func TestInsertIntegerExactBeyond2to53(t *testing.T) {
	srv := wireServer(t)
	for i, lit := range []string{"9007199254740993", "-9007199254740993", "9223372036854775807", "-9223372036854775807", "1152921504606846977"} {
		key := fmt.Sprintf("k%d", i)
		_, acks := ndjson(t, srv, "POST", "/v1/insert", `{"source":"w","tuple":["`+key+`",`+lit+`,null,null]}`)
		if len(acks) != 1 || acks[0]["ok"] != true {
			t.Fatalf("insert %s: %v", lit, acks)
		}
		rw := httptest.NewRecorder()
		srv.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/cluster?source=w&key="+key, nil))
		if want := `"tuple":["` + key + `",` + lit + `,null,null]`; rw.Code != 200 || !strings.Contains(rw.Body.String(), want) {
			t.Fatalf("sent %s, served %d %s", lit, rw.Code, rw.Body.String())
		}
	}
	_, acks := ndjson(t, srv, "POST", "/v1/insert", `{"source":"w","tuple":["over",9223372036854775808,null,null]}`)
	if len(acks) != 1 || acks[0]["ok"] != false || !strings.Contains(fmt.Sprint(acks[0]["error"]), "overflows int64") {
		t.Fatalf("2^63: %v", acks)
	}
}
