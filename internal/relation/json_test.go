package relation

// The tuple codec (json.go) held to its two round trips — what is
// appended reads back as itself, canonical bytes re-append as themselves
// — and, on anything else, to encoding/json: refTuple below tokenises
// with encoding/json (numbers kept as text) and types each scalar by the
// rules the daemon's reflective decoder used, and the codec must accept
// exactly what it accepts and read the same values.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"entityid/internal/schema"
	"entityid/internal/value"
)

// kindsSchema is a schema with one attribute per kind given.
func kindsSchema(kinds ...value.Kind) *schema.Schema {
	attrs := make([]schema.Attribute, len(kinds))
	for i, k := range kinds {
		attrs[i] = schema.Attribute{Name: fmt.Sprintf("a%d", i), Kind: k}
	}
	return schema.MustNew("t", attrs)
}

var allKinds = kindsSchema(value.KindString, value.KindInt, value.KindFloat, value.KindBool)

// sameTuple is Identical that also tells NaN from a number and the two
// zeros apart.
func sameTuple(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() == value.KindFloat && b[i].Kind() == value.KindFloat {
			fa, fb := a[i].FloatVal(), b[i].FloatVal()
			if math.Float64bits(fa) != math.Float64bits(fb) && !(math.IsNaN(fa) && math.IsNaN(fb)) {
				return false
			}
		} else if !value.Identical(a[i], b[i]) {
			return false
		}
	}
	return true
}

var (
	codecStrings = []string{"", "null", "NULL", "a", " ", `"`, `\`, "<>&", "\u2028\u2029", "\x00\x01\x1f\x7f", "\b\f\n\r\t",
		"\u00e9", "\U0001F600", "\ufffd", "a\"b\\c/d", "[", "]", ",", `\u0041`, "nul", "true", "1", strings.Repeat("x", 300)}
	codecInts   = []int64{0, 1, -1, 1 << 53, 1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64, 1e18}
	codecFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 1e-7, 1e-6, 1e20, 1e21, 1e22, 2.5e-300, 5e-324,
		math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1), 1 << 53, 123456789.125}
)

func randValue(r *rand.Rand, k value.Kind) value.Value {
	if r.Intn(6) == 0 {
		return value.Null
	}
	switch k {
	case value.KindInt:
		if r.Intn(2) == 0 {
			return value.Int(codecInts[r.Intn(len(codecInts))])
		}
		return value.Int(int64(r.Uint64()))
	case value.KindFloat:
		if r.Intn(2) == 0 {
			return value.Float(codecFloats[r.Intn(len(codecFloats))])
		}
		return value.Float(math.Float64frombits(r.Uint64()))
	case value.KindBool:
		return value.Bool(r.Intn(2) == 0)
	default:
		if r.Intn(2) == 0 {
			return value.String(codecStrings[r.Intn(len(codecStrings))])
		}
		s := make([]rune, r.Intn(8))
		for i := range s {
			s[i] = rune(r.Intn(0x3000))
		}
		return value.String(string(s))
	}
}

// TestTupleJSONRoundTrip: parse(sch, append(t)) = t for every value of
// every kind that can be stored — the listed extremes each on its own,
// then random tuples — and append(parse(b)) = b on the bytes appended.
func TestTupleJSONRoundTrip(t *testing.T) {
	check := func(sch *schema.Schema, tup Tuple) {
		t.Helper()
		b := AppendTupleJSON(nil, tup)
		if !json.Valid(b) {
			t.Fatalf("%v appended as %s: not JSON", tup, b)
		}
		back, err := ParseTupleJSON(sch, b)
		if err != nil || !sameTuple(back, tup) {
			t.Fatalf("%v appended as %s, read back as %v (%v)", tup, b, back, err)
		}
		if again := AppendTupleJSON(nil, back); !bytes.Equal(again, b) {
			t.Fatalf("%s re-appended as %s", b, again)
		}
		// The same tuple inside a list, beside itself.
		list := AppendTuplesJSON([]byte("junk"), []Tuple{tup, tup})[4:]
		ts, err := parseTuples(sch, list)
		if err != nil || len(ts) != 2 || !sameTuple(ts[0], tup) || !sameTuple(ts[1], tup) {
			t.Fatalf("%s read back as %v (%v)", list, ts, err)
		}
		// Read again into the same blocks, behind what dst holds: appended,
		// and on a refusal dst comes back as given.
		var tb TupleBlocks
		ts2, err := tb.ParseTuplesJSON(sch, ts[:1:1], list)
		if err != nil || len(ts2) != 3 || !sameTuple(ts2[0], tup) || !sameTuple(ts2[2], tup) {
			t.Fatalf("%s read behind a tuple as %v (%v)", list, ts2, err)
		}
		if back, err := tb.ParseTuplesJSON(sch, ts2, list[:len(list)-1]); err == nil || len(back) != 3 {
			t.Fatalf("a torn %s read as %d tuples (%v)", list, len(back), err)
		}
		// The two share a block of values, each capped at its arity: an
		// append to the first leaves the second as it was.
		if _ = append(ts[0], value.Null); cap(ts[0]) != len(tup) || !sameTuple(ts[1], tup) {
			t.Fatalf("%s read back with capacity %d, the second as %v after an append to the first", list, cap(ts[0]), ts[1])
		}
	}
	null := Tuple{value.Null, value.Null, value.Null, value.Null}
	check(allKinds, null)
	for _, s := range codecStrings {
		tup := null.Clone()
		tup[0] = value.String(s)
		check(allKinds, tup)
	}
	for _, i := range codecInts {
		tup := null.Clone()
		tup[1] = value.Int(i)
		check(allKinds, tup)
	}
	for _, f := range codecFloats {
		tup := null.Clone()
		tup[2] = value.Float(f)
		check(allKinds, tup)
	}
	for _, b := range []bool{true, false} {
		tup := null.Clone()
		tup[3] = value.Bool(b)
		check(allKinds, tup)
	}
	r := rand.New(rand.NewSource(24))
	for n := 0; n < 5000; n++ {
		kinds := make([]value.Kind, 1+r.Intn(6))
		tup := make(Tuple, len(kinds))
		for i := range kinds {
			kinds[i] = value.KindString + value.Kind(r.Intn(4))
			tup[i] = randValue(r, kinds[i])
		}
		check(kindsSchema(kinds...), tup)
	}
	if ts, err := parseTuples(allKinds, AppendTuplesJSON(nil, nil)); err != nil || len(ts) != 0 {
		t.Fatalf("the empty list read back as %v (%v)", ts, err)
	}
	if i := (Tuple{value.Int(1), value.String("ok"), value.String("a\xffb"), value.String("\xfe")}).InvalidUTF8(); i != 2 {
		t.Fatalf("InvalidUTF8 = %d, want 2", i)
	}
	if i := (Tuple{value.Null, value.String("é �")}).InvalidUTF8(); i != -1 {
		t.Fatalf("InvalidUTF8 = %d on valid strings", i)
	}
}

// TestTupleJSONRefusals: what is not one JSON array of exactly the
// schema's scalars.
func TestTupleJSONRefusals(t *testing.T) {
	for b, want := range map[string]string{
		``:                                 `want '['`,
		`null`:                             `want '['`,
		`{}`:                               `want '['`,
		`"x"`:                              `want '['`,
		`[]`:                               "0 values, schema wants 4",
		`["x",1,1.5]`:                      "3 values, schema wants 4",
		`["x",1,1.5,true,null]`:            "more than 4 values, schema wants 4",
		`["x",1,1.5,true,",\"]",2,3]`:      "more than 4 values, schema wants 4",
		`["x",1,1.5,true`:                  `want ','`,
		`["x",1,1.5,true,]`:                "more than 4 values, schema wants 4",
		`["x",1,1.5,]`:                     `attribute "a3": `,
		`[,"x",1,1.5,true]`:                `attribute "a0": `,
		`["x" 1,1.5,true]`:                 `want ','`,
		`["x",1,1.5,true] x`:               "trailing bytes",
		`["x",1,1.5,true][]`:               "trailing bytes",
		`[["x"],1,1.5,true]`:               `attribute "a0": `,
		`[{"a":1},1,1.5,true]`:             `attribute "a0": `,
		`["x",[],1.5,true]`:                `attribute "a1": `,
		`[1,1,1.5,true]`:                   `attribute "a0": number 1 for string attribute`,
		`[true,1,1.5,true]`:                `attribute "a0": bool for string attribute`,
		`["x","y",1.5,true]`:               `attribute "a1": value: parse int "y"`,
		`["x",1.5,1.5,true]`:               `attribute "a1": non-integer 1.5 for int attribute`,
		`["x",9223372036854775808,1,true]`: `attribute "a1": integer 9.223372036854776e+18 overflows int64`,
		`["x",false,1.5,true]`:             `attribute "a1": bool for int attribute`,
		`["x",1,"z",true]`:                 `attribute "a2": value: parse float "z"`,
		`["x",1,1e999,true]`:               `attribute "a2": value: parse float "1e999"`,
		`["x",1,1.5,1]`:                    `attribute "a3": number 1 for bool attribute`,
		`["x",1,1.5,"maybe"]`:              `attribute "a3": value: parse bool "maybe"`,
		`["x",01,1.5,true]`:                `attribute "a1": `,
		`["x",-,1.5,true]`:                 `attribute "a1": `,
		`["x",1.,1.5,true]`:                `attribute "a1": `,
		`["x",1e,1.5,true]`:                `attribute "a1": `,
		`["x",+1,1.5,true]`:                `attribute "a1": `,
		`["x",1,.5,true]`:                  `attribute "a2": `,
		`["x",1,NaN,true]`:                 `attribute "a2": `,
		`["x",1,1.5,tru]`:                  `attribute "a3": `,
		`["x",1,1.5,True]`:                 `attribute "a3": `,
		`[nul,1,1.5,true]`:                 `attribute "a0": `,
		`["x,1,1.5,true]`:                  `attribute "a0": `,
		`["x\",1,1.5,true]`:                `attribute "a0": `,
		`["\x",1,1.5,true]`:                `attribute "a0": `,
		`["\u12g4",1,1.5,true]`:            `attribute "a0": `,
		`["\u12",1,1.5,true]`:              `attribute "a0": `,
		"[\"a\nb\",1,1.5,true]":            `attribute "a0": `,
		"[\"a\\\x01b\",1,1.5,true]":        `attribute "a0": `,
	} {
		if got, err := ParseTupleJSON(allKinds, []byte(b)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: read as %v (%v), want a refusal saying %q", b, got, err, want)
		}
	}
	if _, err := parseTuples(allKinds, []byte(`[["x",1,1.5,true],["y",1,1.5]]`)); err == nil || !strings.Contains(err.Error(), "tuple 1: 3 values") {
		t.Errorf("a short second tuple: %v", err)
	}
	for _, b := range []string{``, `null`, `[[]`, `[["x",1,1.5,true]`, `[["x",1,1.5,true]] []`, `[["x",1,1.5,true],]`, `["x",1,1.5,true]`} {
		if ts, err := parseTuples(allKinds, []byte(b)); err == nil {
			t.Errorf("list %s read as %v", b, ts)
		}
	}
}

// refTuple reads b the way the daemon's request decoder did before the
// codec: encoding/json takes the bytes apart, then each scalar is typed
// against its attribute. Numbers are kept as the text sent (a json.Number
// where the decoder had a float64), so an integer's digits are exact.
func refTuple(sch *schema.Schema, b []byte) (Tuple, error) {
	if t := bytes.TrimLeft(b, " \t\r\n"); len(t) == 0 || t[0] != '[' {
		return nil, fmt.Errorf(`want '['`)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var raw []any
	if err := dec.Decode(&raw); err != nil {
		return nil, err
	}
	if len(bytes.TrimLeft(b[dec.InputOffset():], " \t\r\n")) > 0 {
		return nil, fmt.Errorf("trailing bytes")
	}
	if len(raw) != sch.Arity() {
		return nil, fmt.Errorf("%d values, schema wants %d", len(raw), sch.Arity())
	}
	t := make(Tuple, len(raw))
	for i, rv := range raw {
		var err error
		k := sch.Attr(i).Kind
		switch v := rv.(type) {
		case nil:
		case string:
			if t[i] = value.String(v); k != value.KindString {
				t[i], err = value.Parse(v, k)
			}
		case bool:
			if t[i] = value.Bool(v); k != value.KindBool {
				err = fmt.Errorf("bool for %s attribute", k)
			}
		case json.Number:
			lit := string(v)
			switch k {
			case value.KindFloat:
				var f float64
				f, err = strconv.ParseFloat(lit, 64)
				t[i] = value.Float(f)
			case value.KindInt:
				n, perr := strconv.ParseInt(lit, 10, 64)
				if perr != nil {
					f, _ := strconv.ParseFloat(lit, 64)
					if f != math.Trunc(f) || f < math.MinInt64 || f >= -(math.MinInt64) {
						err = fmt.Errorf("%s is no int64", lit)
					}
					n = int64(f)
				}
				t[i] = value.Int(n)
			default:
				err = fmt.Errorf("number %s for %s attribute", lit, k)
			}
		default:
			err = fmt.Errorf("%T for %s attribute", v, k)
		}
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// checkAgainstReference holds ParseTupleJSON to refTuple on b, and what
// it accepts to the canonical form.
func checkAgainstReference(t *testing.T, sch *schema.Schema, b []byte) {
	t.Helper()
	got, err := ParseTupleJSON(sch, b)
	want, rerr := refTuple(sch, b)
	if (err == nil) != (rerr == nil) {
		t.Fatalf("%q over %v: the codec says %v (%v), encoding/json says %v (%v)", b, sch, got, err, want, rerr)
	}
	// Read twice through shared blocks of values and strings: the same
	// tuple or the same error each time, the second read leaving the
	// first tuple as it was.
	var tb TupleBlocks
	first, ferr := tb.ParseJSON(sch, b)
	second, serr := tb.ParseJSON(sch, b)
	if fmt.Sprint(ferr) != fmt.Sprint(err) || fmt.Sprint(serr) != fmt.Sprint(err) ||
		err == nil && (!sameTuple(first, got) || !sameTuple(second, got) || cap(first) != len(got)) {
		t.Fatalf("%q over %v: read as %v (%v), through blocks as %v (%v) and %v (%v)", b, sch, got, err, first, ferr, second, serr)
	}
	if err != nil {
		return
	}
	if !sameTuple(got, want) {
		t.Fatalf("%q over %v: the codec reads %v, encoding/json reads %v", b, sch, got, want)
	}
	canon := AppendTupleJSON(nil, got)
	back, err := ParseTupleJSON(sch, canon)
	if err != nil || !sameTuple(back, got) || !bytes.Equal(AppendTupleJSON(nil, back), canon) {
		t.Fatalf("%q read as %v, appended as %s, read back as %v (%v)", b, got, canon, back, err)
	}
	// Filed into a relation three times — across its first value blocks
	// — each copy reads back as the tuple, at capacity = arity, after
	// the caller overwrites what it read.
	r := NewBag(sch)
	for range 3 {
		if err := r.Insert(got); err != nil {
			t.Fatalf("%q read as %v, refused by a relation over its schema: %v", b, got, err)
		}
	}
	for i := range got {
		got[i] = value.Null
	}
	for i, kept := range r.Tuples() {
		if !sameTuple(kept, want) || cap(kept) != len(kept) {
			t.Fatalf("%q: a relation's copy %d reads %v (cap %d), want %v", b, i, kept, cap(kept), want)
		}
	}
}

// fuzzSchema builds a schema of 1–6 attributes from the fuzzer's bits,
// two per kind.
func fuzzSchema(bits uint16) *schema.Schema {
	kinds := make([]value.Kind, 1+int(bits&7)%6)
	for i := range kinds {
		kinds[i] = value.KindString + value.Kind(bits>>(3+2*i)&3)
	}
	return kindsSchema(kinds...)
}

// FuzzTupleJSON throws arbitrary bytes, over schemas of every kind, at
// the tuple parser: it never panics, accepts exactly the JSON arrays
// encoding/json accepts whose scalars fit the schema, reads the same
// values, re-appends what it read as canonical bytes that read back the
// same, and a relation that files what it read keeps a copy that reads
// back the same. Seeded from FuzzInsertBody's corpus (the tuples of its lines)
// and the codec's own extremes.
func FuzzTupleJSON(f *testing.F) {
	for _, seed := range []string{
		`["a1","n2"]`, `["a1",null]`, ` [ "a1" ,	"n2" ] `, `["a1"`, `["a1"]`, `["a1",7]`, `[1]`, `null`, `[]`, `{}`, "\xff\xfe[\"a1\"]",
		`["` + strings.Repeat("x", 5000) + `","n"]`, `["<z>","< "]`, `["a0","dup"] {}`, `["\ud83d\ude00","\ud800"]`,
		`["",true]`, `[1e3,-0.0]`, `[9007199254740993,1e400]`, `["NaN","-Inf"]`, `[9223372036854775808,"null"]`, `[[1],{"a":[]}]`,
	} {
		for _, bits := range []uint16{1, 0x0009, 0x0011, 0x0019, 0x5a5d, 0xffff} {
			f.Add([]byte(seed), bits)
		}
	}
	for _, s := range codecStrings {
		f.Add(AppendTupleJSON(nil, Tuple{value.String(s), value.Null}), uint16(1))
	}
	for i, n := range codecInts {
		f.Add(AppendTupleJSON(nil, Tuple{value.Int(n), value.Float(codecFloats[i])}), uint16(0x0051))
	}
	f.Fuzz(func(t *testing.T, b []byte, bits uint16) {
		checkAgainstReference(t, fuzzSchema(bits), b)
	})
}

// TestTupleJSONMatchesEncodingJSON runs the fuzz property over random
// edits of canonical tuples, so `go test` alone covers the non-canonical
// spellings: inserted whitespace, escaped characters, exponent forms.
func TestTupleJSONMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	splice := []string{" ", "\t", "\n", `\u0041`, `\/`, `\ud83d\ude00`, `\udc00`, "e0", "E+2", ".0", "-", "0", `"`, ",", "]", "[", "null", "\xff", "\x01"}
	for n := 0; n < 20000; n++ {
		bits := uint16(r.Uint32())
		sch := fuzzSchema(bits)
		tup := make(Tuple, sch.Arity())
		for i := range tup {
			tup[i] = randValue(r, sch.Attr(i).Kind)
		}
		b := AppendTupleJSON(nil, tup)
		for e := r.Intn(3); e > 0; e-- {
			at := r.Intn(len(b) + 1)
			b = append(b[:at:at], append([]byte(splice[r.Intn(len(splice))]), b[at:]...)...)
		}
		checkAgainstReference(t, sch, b)
	}
}

// parseTuples reads a JSON array of tuples into blocks of its own.
func parseTuples(sch *schema.Schema, b []byte) ([]Tuple, error) {
	var tb TupleBlocks
	return tb.ParseTuplesJSON(sch, nil, b)
}
