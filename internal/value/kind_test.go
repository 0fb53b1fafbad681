package value_test

import (
	"strings"
	"testing"

	"entityid/internal/relation"
	"entityid/internal/value"
	"entityid/internal/wal"
)

// TestParseKindInvertsString: ParseKind is the inverse of Kind.String
// over the kinds a schema can declare, and refuses the two names String
// also produces — "null" and the "kind(n)" of a value out of range.
func TestParseKindInvertsString(t *testing.T) {
	for _, k := range []value.Kind{value.KindString, value.KindInt, value.KindFloat, value.KindBool} {
		if got, err := value.ParseKind(k.String()); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, k := range []value.Kind{value.KindNull, value.KindBool + 1} {
		if got, err := value.ParseKind(k.String()); err == nil {
			t.Errorf("ParseKind(%q) = %v; want it refused", k.String(), got)
		}
	}
}

// kindSpellings is every spelling of an attribute kind one of the three
// front doors ever took a stand on, and who accepts it: the daemon's
// POST /v1/sources (checked against this same table by cmd/entityidd's
// TestSourceKindSpellings), the CSV header, a schema record in the
// write-ahead log or a snapshot. The table was written against the three
// hand-rolled parsers ParseKind replaced and must not move.
var kindSpellings = []struct {
	spelling         string
	want             value.Kind // KindNull: nobody accepts it
	daemon, csv, wal bool
}{
	{"string", value.KindString, true, true, true},
	{"int", value.KindInt, true, true, true},
	{"float", value.KindFloat, true, true, true},
	{"bool", value.KindBool, true, true, true},
	{"", value.KindString, true, true, false},
	{"str", value.KindString, false, true, false},
	{"integer", value.KindInt, false, true, false},
	{"double", value.KindFloat, false, true, false},
	{"boolean", value.KindBool, false, true, false},
	{"String", value.KindString, false, true, false},
	{"INT", value.KindInt, false, true, false},
	{" float ", value.KindFloat, false, true, false},
	{"Boolean", value.KindBool, false, true, false},
	{"null", value.KindNull, false, false, false},
	{"NULL", value.KindNull, false, false, false},
	{"number", value.KindNull, false, false, false},
	{"text", value.KindNull, false, false, false},
	{"kind(7)", value.KindNull, false, false, false},
}

func TestKindSpellingsCSVAndWAL(t *testing.T) {
	for _, tc := range kindSpellings {
		rel, err := relation.ReadCSV("r", strings.NewReader("a:"+tc.spelling+"\n"))
		if tc.csv != (err == nil) {
			t.Errorf("csv header kind %q: accepted=%v (%v), want accepted=%v", tc.spelling, err == nil, err, tc.csv)
		} else if err == nil && rel.Schema().Attr(0).Kind != tc.want {
			t.Errorf("csv header kind %q read as %v, want %v", tc.spelling, rel.Schema().Attr(0).Kind, tc.want)
		}
		sch, err := wal.DecodeSchema(wal.SchemaRec{Name: "r", Attrs: []wal.AttrRec{{Name: "a", Kind: tc.spelling}}})
		if tc.wal != (err == nil) {
			t.Errorf("wal schema kind %q: accepted=%v (%v), want accepted=%v", tc.spelling, err == nil, err, tc.wal)
		} else if err == nil && sch.Attr(0).Kind != tc.want {
			t.Errorf("wal schema kind %q read as %v, want %v", tc.spelling, sch.Attr(0).Kind, tc.want)
		}
	}
}
