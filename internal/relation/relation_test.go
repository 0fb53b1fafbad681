package relation

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"entityid/internal/schema"
	"entityid/internal/value"
)

func mkSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.MustNew("R",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "street", Kind: value.KindString},
			{Name: "cuisine", Kind: value.KindString},
		},
		[]string{"name", "street"},
	)
}

func mkTable1R(t *testing.T) *Relation {
	t.Helper()
	r := New(mkSchema(t))
	r.MustInsert(value.String("VillageWok"), value.String("Wash.Ave."), value.String("Chinese"))
	r.MustInsert(value.String("Ching"), value.String("Co.B Rd."), value.String("Chinese"))
	r.MustInsert(value.String("OldCountry"), value.String("Co.B2 Rd."), value.String("American"))
	return r
}

func TestInsertAndAccess(t *testing.T) {
	r := mkTable1R(t)
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	v, err := r.Value(0, "cuisine")
	if err != nil || v.Str() != "Chinese" {
		t.Errorf("Value(0, cuisine) = %v, %v", v, err)
	}
	if _, err := r.Value(0, "bogus"); err == nil {
		t.Error("Value on unknown attribute did not fail")
	}
	if got := r.MustValue(1, "name").Str(); got != "Ching" {
		t.Errorf("MustValue = %q", got)
	}
}

func TestInsertArityAndKindChecks(t *testing.T) {
	r := New(mkSchema(t))
	if err := r.Insert(Tuple{value.String("a")}); err == nil {
		t.Error("short tuple accepted")
	}
	err := r.Insert(Tuple{value.String("a"), value.Int(1), value.String("c")})
	if err == nil || !strings.Contains(err.Error(), "schema wants string") {
		t.Errorf("kind mismatch error = %v", err)
	}
	// NULL is allowed in any attribute.
	if err := r.Insert(Tuple{value.String("a"), value.String("b"), value.Null}); err != nil {
		t.Errorf("NULL value rejected: %v", err)
	}
}

func TestKeyEnforcement(t *testing.T) {
	r := mkTable1R(t)
	// Same (name, street) => key violation.
	err := r.Insert(Tuple{value.String("VillageWok"), value.String("Wash.Ave."), value.String("Thai")})
	if err == nil || !strings.Contains(err.Error(), "key (name,street) violation") {
		t.Errorf("key violation error = %v", err)
	}
	// Example 1's insertion: same name, different street is fine — this is
	// exactly why name alone cannot identify restaurants.
	if err := r.Insert(Tuple{value.String("VillageWok"), value.String("Penn.Ave."), value.String("Chinese")}); err != nil {
		t.Errorf("distinct street rejected: %v", err)
	}
}

func TestKeyEnforcementSkipsNulls(t *testing.T) {
	r := New(mkSchema(t))
	// Two tuples with NULL street: not a key violation, because a NULL key
	// projection is not indexed (extended relations carry NULLs in key
	// attributes).
	if err := r.Insert(Tuple{value.String("a"), value.Null, value.Null}); err != nil {
		t.Fatalf("first NULL-key tuple: %v", err)
	}
	if err := r.Insert(Tuple{value.String("a"), value.Null, value.Null}); err != nil {
		t.Errorf("second NULL-key tuple rejected: %v", err)
	}
}

func TestMultipleCandidateKeys(t *testing.T) {
	s := schema.MustNew("E",
		[]schema.Attribute{
			{Name: "empno", Kind: value.KindInt},
			{Name: "ssn", Kind: value.KindString},
			{Name: "name", Kind: value.KindString},
		},
		[]string{"empno"}, []string{"ssn"},
	)
	r := New(s)
	r.MustInsert(value.Int(1), value.String("111"), value.String("ann"))
	err := r.Insert(Tuple{value.Int(2), value.String("111"), value.String("bob")})
	if err == nil || !strings.Contains(err.Error(), "key (ssn)") {
		t.Errorf("second candidate key not enforced: %v", err)
	}
}

// TestInsertAll holds the bulk entry point to Insert: the same tuples
// admitted, the same refusal at the same tuple, every candidate key
// indexed — but each tuple kept, not copied.
func TestInsertAll(t *testing.T) {
	s := schema.MustNew("E",
		[]schema.Attribute{{Name: "empno", Kind: value.KindInt}, {Name: "ssn", Kind: value.KindString}},
		[]string{"empno"}, []string{"ssn"},
	)
	row := func(n int64, ssn string) Tuple { return Tuple{value.Int(n), value.String(ssn)} }
	ts := []Tuple{row(1, "111"), row(2, "222"), row(3, "111"), row(4, "444")}
	bulk, one := New(s), New(s)
	err := bulk.InsertAll(ts)
	var want error
	for _, tu := range ts {
		if want = one.Insert(tu); want != nil {
			break
		}
	}
	if err == nil || err.Error() != want.Error() || bulk.Len() != 2 || one.Len() != 2 {
		t.Fatalf("InsertAll: %v holding %d tuples; Insert one at a time: %v holding %d", err, bulk.Len(), want, one.Len())
	}
	if &bulk.Tuple(1)[0] != &ts[1][0] {
		t.Error("InsertAll copied a tuple it was handed")
	}
	if err := bulk.InsertAll([]Tuple{row(5, "555")}); err != nil || bulk.Len() != 3 {
		t.Fatalf("InsertAll onto a non-empty relation: %v, %d tuples", err, bulk.Len())
	}
	for i, key := range []value.Value{value.Int(1), value.Int(2), value.Int(5)} {
		if got := bulk.LookupKey(key); got != i {
			t.Errorf("LookupKey(%v) = %d, want %d", key, got, i)
		}
	}
	if err := bulk.InsertAll([]Tuple{row(6, "555")}); err == nil {
		t.Error("InsertAll took a tuple duplicating the second candidate key of one it inserted")
	}
}

func TestLookupKey(t *testing.T) {
	r := mkTable1R(t)
	if got := r.LookupKey(value.String("Ching"), value.String("Co.B Rd.")); got != 1 {
		t.Errorf("LookupKey = %d, want 1", got)
	}
	if got := r.LookupKey(value.String("Ching")); got != -1 {
		t.Errorf("LookupKey wrong arity = %d, want -1", got)
	}
	if got := r.LookupKey(value.String("Nobody"), value.String("Nowhere")); got != -1 {
		t.Errorf("LookupKey missing = %d, want -1", got)
	}
	if got := r.LookupKey(value.Null, value.String("Wash.Ave.")); got != -1 {
		t.Errorf("LookupKey with NULL = %d, want -1", got)
	}
}

func TestInsertStrings(t *testing.T) {
	r := New(mkSchema(t))
	if err := r.InsertStrings("VillageWok", "Wash.Ave.", "Chinese"); err != nil {
		t.Fatalf("InsertStrings: %v", err)
	}
	if err := r.InsertStrings("x", "y", "null"); err != nil {
		t.Fatalf("InsertStrings null: %v", err)
	}
	if !r.Tuple(1)[2].IsNull() {
		t.Error("null literal did not parse to NULL")
	}
	if err := r.InsertStrings("only-two", "fields"); err == nil {
		t.Error("wrong field count accepted")
	}
	intRel := New(schema.MustNew("N", []schema.Attribute{{Name: "n", Kind: value.KindInt}}))
	if err := intRel.InsertStrings("notanint"); err == nil {
		t.Error("bad int accepted")
	}
}

func TestProjectTuple(t *testing.T) {
	r := mkTable1R(t)
	p, err := r.Project(r.Tuple(0), []string{"cuisine", "name"})
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p[0].Str() != "Chinese" || p[1].Str() != "VillageWok" {
		t.Errorf("Project = %v", p)
	}
	if _, err := r.Project(r.Tuple(0), []string{"zzz"}); err == nil {
		t.Error("Project unknown attribute did not fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	r := mkTable1R(t)
	c := r.Clone()
	if !r.Equal(c) {
		t.Fatal("clone not Equal to original")
	}
	c.MustInsert(value.String("New"), value.String("St."), value.String("Thai"))
	if r.Len() == c.Len() {
		t.Error("mutating clone changed original length")
	}
	if r.Equal(c) {
		t.Error("clone still Equal after divergence")
	}
	// Key index in clone must be live.
	if got := c.LookupKey(value.String("New"), value.String("St.")); got != 3 {
		t.Errorf("clone LookupKey = %d", got)
	}
}

func TestEqualOrderInsensitive(t *testing.T) {
	a := mkTable1R(t)
	b := New(mkSchema(t))
	// Insert in reverse order.
	for i := a.Len() - 1; i >= 0; i-- {
		if err := b.Insert(a.Tuple(i).Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Equal(b) {
		t.Error("order-permuted relations not Equal")
	}
}

func TestEqualDetectsMultisetDifference(t *testing.T) {
	s := schema.MustNew("M", []schema.Attribute{{Name: "a", Kind: value.KindString}, {Name: "b", Kind: value.KindString}})
	mk := func(rows ...[2]string) *Relation {
		r := New(s)
		for _, row := range rows {
			// No declared key: full-attribute key skips NULLs, so duplicate
			// rows need a NULL to coexist — use distinct b to avoid that.
			r.MustInsert(value.String(row[0]), value.String(row[1]))
		}
		return r
	}
	a := mk([2]string{"x", "1"}, [2]string{"y", "2"})
	b := mk([2]string{"x", "1"}, [2]string{"y", "3"})
	if a.Equal(b) {
		t.Error("different relations Equal")
	}
}

func TestSortDeterminism(t *testing.T) {
	r := mkTable1R(t)
	if err := r.Sort("name"); err != nil {
		t.Fatalf("Sort: %v", err)
	}
	names := []string{}
	for _, tup := range r.Tuples() {
		names = append(names, tup[0].Str())
	}
	want := []string{"Ching", "OldCountry", "VillageWok"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("sorted names = %v, want %v", names, want)
		}
	}
	// Index must survive sorting.
	if got := r.LookupKey(value.String("VillageWok"), value.String("Wash.Ave.")); got != 2 {
		t.Errorf("LookupKey after sort = %d, want 2", got)
	}
	if err := r.Sort("bogus"); err == nil {
		t.Error("Sort on unknown attribute did not fail")
	}
	// Sort with no attributes sorts by whole tuple.
	if err := r.Sort(); err != nil {
		t.Errorf("whole-tuple Sort: %v", err)
	}
}

func TestTupleKeyInjectiveQuick(t *testing.T) {
	f := func(a1, a2, b1, b2 string) bool {
		t1 := Tuple{value.String(a1), value.String(a2)}
		t2 := Tuple{value.String(b1), value.String(b2)}
		return (t1.Key() == t2.Key()) == t1.Identical(t2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleIdentical(t *testing.T) {
	a := Tuple{value.String("x"), value.Null}
	b := Tuple{value.String("x"), value.Null}
	if !a.Identical(b) {
		t.Error("tuples with NULLs not Identical")
	}
	if a.Identical(Tuple{value.String("x")}) {
		t.Error("different arity Identical")
	}
}

func TestFormatAndString(t *testing.T) {
	r := mkTable1R(t)
	out := r.String()
	for _, want := range []string{"R", "name", "street", "cuisine", "VillageWok", "Wash.Ave."} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q in:\n%s", want, out)
		}
	}
	// NULL renders as "null".
	n := New(mkSchema(t))
	n.MustInsert(value.String("a"), value.String("b"), value.Null)
	if !strings.Contains(n.String(), "null") {
		t.Errorf("NULL not rendered as null:\n%s", n.String())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := mkTable1R(t)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV("R", &buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !r.Equal(back) {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", r, back)
	}
	if !back.Schema().IsKey([]string{"name", "street"}) {
		t.Error("key lost in round trip")
	}
}

func TestReadCSVHeaderForms(t *testing.T) {
	in := "*id:int,name,score:float,ok:bool\n1,ann,2.5,true\n2,bob,null,false\n"
	r, err := ReadCSV("T", strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if got := r.MustValue(0, "id"); got.IntVal() != 1 {
		t.Errorf("id = %v", got)
	}
	if got := r.MustValue(0, "score"); got.FloatVal() != 2.5 {
		t.Errorf("score = %v", got)
	}
	if !r.MustValue(1, "score").IsNull() {
		t.Error("null float not NULL")
	}
	if !r.Schema().IsKey([]string{"id"}) {
		t.Error("starred key not honored")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"bad kind", "a:llama\nx\n"},
		{"bad value", "a:int\nnotint\n"},
		{"key violation", "*a\nx\nx\n"},
		{"ragged", "a,b\nonly-one-without-quote,\"x\",extra\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadCSV("T", strings.NewReader(c.in)); err == nil {
				t.Errorf("ReadCSV(%q) succeeded, want error", c.in)
			}
		})
	}
}
