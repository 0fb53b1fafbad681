package wal

import (
	"reflect"
	"strings"
	"testing"

	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/rules"
	"entityid/internal/schema"
	"entityid/internal/value"
)

func TestValueRoundTrip(t *testing.T) {
	vals := []value.Value{
		value.Null,
		value.String(""),
		value.String("null"), // must NOT fold into NULL (unlike value.Parse)
		value.String("NULL"),
		value.String(`quo"ted & spaced `),
		value.Int(0),
		value.Int(-9007199254740993),
		value.Float(0.1),
		value.Float(-2.5e-300),
		value.Bool(true),
		value.Bool(false),
	}
	for _, v := range vals {
		got, err := DecodeValue(EncodeValue(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !value.Identical(got, v) {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
	if _, err := DecodeValue(ValueRec{Kind: "complex", Text: "1+2i"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := DecodeValue(ValueRec{Kind: "int", Text: "abc"}); err == nil {
		t.Fatal("bad int accepted")
	}
}

func TestTupleAndSchemaRoundTrip(t *testing.T) {
	sch := schema.MustNew("guides",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "stars", Kind: value.KindInt},
			{Name: "rating", Kind: value.KindFloat},
			{Name: "open", Kind: value.KindBool},
		},
		[]string{"name"}, []string{"stars", "rating"},
	)
	got, err := DecodeSchema(EncodeSchema(sch))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(sch) {
		t.Fatalf("schema round trip:\n%v\n%v", got, sch)
	}
	// A tuple is the codec's bytes, read back against the decoded schema.
	tup := relation.Tuple{value.String("wok"), value.Int(3), value.Null, value.Bool(true)}
	got2, err := relation.ParseTupleJSON(got, relation.AppendTupleJSON(nil, tup))
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Identical(tup) {
		t.Fatalf("tuple round trip: %v -> %v", tup, got2)
	}
	if _, err := DecodeSchema(SchemaRec{Name: "x", Attrs: []AttrRec{{Name: "a", Kind: "imaginary"}}}); err == nil {
		t.Fatal("bad kind accepted")
	}
	if _, err := DecodeSchema(SchemaRec{Name: "", Attrs: []AttrRec{{Name: "a", Kind: "string"}}}); err == nil {
		t.Fatal("empty schema name accepted")
	}
}

func TestILFDRoundTrip(t *testing.T) {
	fs := ilfd.Set{
		ilfd.MustParse("speciality=hunan -> cuisine=chinese"),
		ilfd.MustParse(`a=1 & b="x y" -> c=3 & d=4`),
	}
	got, err := DecodeILFDs(EncodeILFDs(fs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(fs) {
		t.Fatalf("%d ILFDs", len(got))
	}
	for i := range fs {
		if !got[i].Antecedent.Equal(fs[i].Antecedent) || !got[i].Consequent.Equal(fs[i].Consequent) {
			t.Fatalf("ILFD %d: %v -> %v", i, fs[i], got[i])
		}
	}
	// An empty consequent is invalid and must be rejected on decode.
	bad := []ILFDRec{{Ante: []CondRec{{Attr: "a", Val: ValueRec{Kind: "string", Text: "1"}}}}}
	if _, err := DecodeILFDs(bad); err == nil {
		t.Fatal("invalid ILFD accepted")
	}
}

func TestRuleRoundTrip(t *testing.T) {
	id := rules.MustNewIdentity("key-eq", []rules.Predicate{
		{Left: rules.Attr1("name"), Op: rules.Eq, Right: rules.Attr2("name")},
		{Left: rules.Attr1("cuisine"), Op: rules.Eq, Right: rules.Const(value.String("chinese"))},
		{Left: rules.Attr2("cuisine"), Op: rules.Eq, Right: rules.Const(value.String("chinese"))},
	})
	gotID, err := DecodeIdentityRules(EncodeIdentityRules([]rules.IdentityRule{id}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotID, []rules.IdentityRule{id}) {
		t.Fatalf("identity round trip: %v", gotID)
	}
	di := rules.MustNewDistinctness("far-apart", []rules.Predicate{
		{Left: rules.Attr1("stars"), Op: rules.Gt, Right: rules.Const(value.Int(4))},
		{Left: rules.Attr2("stars"), Op: rules.Lt, Right: rules.Const(value.Int(2))},
	})
	gotDi, err := DecodeDistinctnessRules(EncodeDistinctnessRules([]rules.DistinctnessRule{di}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotDi, []rules.DistinctnessRule{di}) {
		t.Fatalf("distinctness round trip: %v", gotDi)
	}
	// An ill-formed identity rule (the paper's r2 shape) must be
	// rejected on decode even though it is CRC-clean.
	bad := []RuleRec{{Name: "r2", Preds: []PredRec{{
		Left:  OperandRec{Side: 1, Attr: "cuisine"},
		Op:    int(rules.Eq),
		Right: OperandRec{Const: &ValueRec{Kind: "string", Text: "chinese"}},
	}}}}
	if _, err := DecodeIdentityRules(bad); err == nil {
		t.Fatal("ill-formed identity rule accepted")
	}
	if _, err := DecodeIdentityRules([]RuleRec{{Name: "x", Preds: []PredRec{{
		Left: OperandRec{Side: 7, Attr: "a"}, Op: int(rules.Eq), Right: OperandRec{Side: 2, Attr: "a"},
	}}}}); err == nil {
		t.Fatal("bad operand side accepted")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	tup := relation.Tuple{value.String("wok <&> \u2028"), value.Null, value.Float(-0.5), value.Int(-1 << 63)}
	env := Envelope{Type: TypeSourceBegin, V: TupleFormat, SourceBegin: &SourceBeginRec{
		Name:   "zagat \"1\"",
		Schema: SchemaRec{Name: "zagat", Attrs: []AttrRec{{Name: "name", Kind: "string"}}, Keys: [][]string{{"name"}}},
	}}
	payload, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEnvelope(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Fatalf("envelope round trip: %+v", got)
	}
	// A run record is not an envelope: it is read by its own reader, and
	// the envelope decoder takes it for a record of no type.
	run := AppendRun(nil, env.SourceBegin.Name, false, []relation.Tuple{tup})
	if !IsRun(run) || IsRun(payload) {
		t.Fatalf("IsRun(%s) = %v, IsRun(%s) = %v", run, IsRun(run), payload, IsRun(payload))
	}
	if _, err := DecodeEnvelope(run); err == nil || !strings.Contains(err.Error(), `unknown record type ""`) {
		t.Fatalf("envelope decoder read a run: %v", err)
	}
	// A record of a format before TupleFormat — the records that carried
	// tuples until the run record, "v":2 with a bare array per tuple, or
	// format 1's {"k","v"} object per value and no "v" — is refused by
	// both numbers, as is any "v" this build does not write for the type.
	for old, want := range map[string]string{
		`{"type":"insert","insert":{"source":"zagat","tuple":[{"k":"string","v":"wok"},{"k":"null"}]}}`:                               "insert record of format 1, this build reads 3",
		`{"type":"add_source","add_source":{"name":"s","schema":{"name":"s","attrs":[{"name":"a","kind":"string"}],"keys":[["a"]]}}}`: "add_source record of format 1, this build reads 3",
		`{"type":"source_chunk","source_chunk":{"name":"s","tuples":[[{"k":"string","v":"v"}]],"final":true}}`:                        "source_chunk record of format 1, this build reads 3",
		`{"type":"insert","v":2,"insert":{"source":"zagat","tuple":["wok",null]}}`:                                                    "insert record of format 2, this build reads 3",
		`{"type":"add_source","v":2,"add_source":{"name":"s","schema":{"name":"s"},"tuples":[]}}`:                                     "add_source record of format 2, this build reads 3",
		`{"type":"source_chunk","v":2,"source_chunk":{"name":"s","tuples":[],"final":true}}`:                                          "source_chunk record of format 2, this build reads 3",
		`{"type":"source_begin","source_begin":{"name":"s","schema":{"name":"s"}}}`:                                                   "source_begin record of format 1, this build reads 3",
		`{"type":"source_begin","v":2,"source_begin":{"name":"s","schema":{"name":"s"}}}`:                                             "source_begin record of format 2, this build reads 3",
		`{"type":"link","v":3,"link":{"left":"a","right":"b"}}`:                                                                       "link record of format 3, this build reads 1",
	} {
		if _, err := DecodeEnvelope([]byte(old)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: want a refusal saying %q, got %v", old, want, err)
		}
	}
	if _, err := (Envelope{Type: TypeLink, SourceBegin: env.SourceBegin}).Encode(); err == nil {
		t.Fatal("mismatched envelope accepted")
	}
	if _, err := DecodeEnvelope([]byte(`{"type":"link"}`)); err == nil {
		t.Fatal("bodyless envelope accepted")
	}
	if _, err := DecodeEnvelope([]byte(`{"type":"drop_table"}`)); err == nil {
		t.Fatal("unknown type accepted")
	}
	am := []match.AttrMap{{Name: "name", R: "name", S: "nm"}, {Name: "loc", R: "loc"}}
	if got := DecodeAttrMaps(EncodeAttrMaps(am)); !reflect.DeepEqual(got, am) {
		t.Fatalf("attr map round trip: %v", got)
	}
}
