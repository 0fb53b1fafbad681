package ra

import (
	"strings"
	"testing"

	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

func s(v string) value.Value { return value.String(v) }

func mkRel(t *testing.T, name string, attrs []string, key []string, rows ...[]string) *relation.Relation {
	t.Helper()
	as := make([]schema.Attribute, len(attrs))
	for i, a := range attrs {
		as[i] = schema.Attribute{Name: a, Kind: value.KindString}
	}
	var keys [][]string
	if key != nil {
		keys = [][]string{key}
	}
	sch, err := schema.New(name, as, keys...)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	r := relation.New(sch)
	for _, row := range rows {
		if err := r.InsertStrings(row...); err != nil {
			t.Fatalf("insert %v: %v", row, err)
		}
	}
	return r
}

func TestRename(t *testing.T) {
	r := mkRel(t, "R", []string{"name", "cui"}, []string{"name"},
		[]string{"wok", "chinese"},
	)
	got, err := Rename(r, "R2", map[string]string{"cui": "cuisine"})
	if err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if !got.Schema().Has("cuisine") || got.Schema().Has("cui") {
		t.Errorf("rename schema = %v", got.Schema())
	}
	if !got.Schema().IsKey([]string{"name"}) {
		t.Error("rename dropped key")
	}
	// Renaming a key attribute renames it inside the key too.
	got2, err := Rename(r, "R3", map[string]string{"name": "id"})
	if err != nil {
		t.Fatalf("Rename key attr: %v", err)
	}
	if !got2.Schema().IsKey([]string{"id"}) {
		t.Error("key attr not renamed in key")
	}
	// Renaming into a collision fails.
	if _, err := Rename(r, "R4", map[string]string{"cui": "name"}); err == nil {
		t.Error("rename collision accepted")
	}
}

func TestInnerJoin(t *testing.T) {
	r := mkRel(t, "R", []string{"name", "cuisine"}, []string{"name"},
		[]string{"wok", "chinese"},
		[]string{"oldcountry", "american"},
	)
	sRel := mkRel(t, "S", []string{"name", "city"}, []string{"name"},
		[]string{"wok", "mpls"},
		[]string{"express", "burnsville"},
	)
	j, err := Join(r, sRel, "J", Inner, []On{{Left: "name", Right: "name"}})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if j.Len() != 1 {
		t.Fatalf("inner join size = %d, want 1", j.Len())
	}
	// Name collision disambiguated by relation prefix.
	sch := j.Schema()
	if !sch.Has("R.name") || !sch.Has("S.name") {
		t.Errorf("join schema = %v", sch)
	}
	if got := j.MustValue(0, "city").Str(); got != "mpls" {
		t.Errorf("joined city = %q", got)
	}
}

func TestJoinNullNeverMatches(t *testing.T) {
	r := mkRel(t, "R", []string{"k", "v"}, nil)
	r.MustInsert(value.Null, s("left"))
	sRel := mkRel(t, "S", []string{"k", "w"}, nil)
	sRel.MustInsert(value.Null, s("right"))
	j, err := Join(r, sRel, "J", Inner, []On{{Left: "k", Right: "k"}})
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if j.Len() != 0 {
		t.Errorf("NULL joined with NULL: %v", j.Tuples())
	}
	// But under full outer join both rows survive, NULL-padded.
	f, err := Join(r, sRel, "F", FullOuter, []On{{Left: "k", Right: "k"}})
	if err != nil {
		t.Fatalf("FullOuter: %v", err)
	}
	if f.Len() != 2 {
		t.Errorf("full outer size = %d, want 2", f.Len())
	}
}

func TestOuterJoins(t *testing.T) {
	r := mkRel(t, "R", []string{"id", "a"}, []string{"id"},
		[]string{"1", "x"}, []string{"2", "y"})
	sRel := mkRel(t, "S", []string{"id", "b"}, []string{"id"},
		[]string{"2", "p"}, []string{"3", "q"})
	on := []On{{Left: "id", Right: "id"}}

	l, err := Join(r, sRel, "L", LeftOuter, on)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Errorf("left outer size = %d, want 2", l.Len())
	}
	rt, err := Join(r, sRel, "R", RightOuter, on)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Len() != 2 {
		t.Errorf("right outer size = %d, want 2", rt.Len())
	}
	f, err := Join(r, sRel, "F", FullOuter, on)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 3 {
		t.Errorf("full outer size = %d, want 3", f.Len())
	}
	// The unmatched left row (id=1) must have NULL b.
	var found bool
	for i := 0; i < f.Len(); i++ {
		if v := f.MustValue(i, "R.id"); !v.IsNull() && v.Str() == "1" {
			found = true
			if !f.MustValue(i, "b").IsNull() {
				t.Error("unmatched left row has non-NULL right attribute")
			}
		}
	}
	if !found {
		t.Error("unmatched left row missing from full outer join")
	}
}

func TestJoinValidation(t *testing.T) {
	r := mkRel(t, "R", []string{"a"}, nil, []string{"1"})
	q := mkRel(t, "S", []string{"b"}, nil, []string{"1"})
	if _, err := Join(r, q, "J", Inner, nil); err == nil {
		t.Error("join with no conditions accepted")
	}
	if _, err := Join(r, q, "J", Inner, []On{{Left: "zzz", Right: "b"}}); err == nil {
		t.Error("join with bad left attr accepted")
	}
	if _, err := Join(r, q, "J", Inner, []On{{Left: "a", Right: "zzz"}}); err == nil {
		t.Error("join with bad right attr accepted")
	}
}

func TestJoinManyToOne(t *testing.T) {
	// Two left rows joining the same right row must both appear.
	r := mkRel(t, "R", []string{"id", "k"}, []string{"id"},
		[]string{"1", "a"}, []string{"2", "a"})
	q := mkRel(t, "S", []string{"k", "v"}, []string{"k"}, []string{"a", "vv"})
	j, err := Join(r, q, "J", Inner, []On{{Left: "k", Right: "k"}})
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Errorf("many-to-one join size = %d, want 2", j.Len())
	}
}

func TestJoinKindString(t *testing.T) {
	names := map[JoinKind]string{
		Inner: "inner", LeftOuter: "left-outer",
		RightOuter: "right-outer", FullOuter: "full-outer",
		JoinKind(9): "join(9)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("JoinKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestJoinSchemaCollisionSuffix(t *testing.T) {
	// Joining a relation with itself: every attribute collides; prefixes
	// are the same relation name, so the fallback counter must kick in.
	r := mkRel(t, "R", []string{"id"}, []string{"id"}, []string{"1"})
	j, err := Join(r, r, "J", Inner, []On{{Left: "id", Right: "id"}})
	if err != nil {
		t.Fatalf("self join: %v", err)
	}
	if j.Schema().Arity() != 2 {
		t.Errorf("self join arity = %d", j.Schema().Arity())
	}
	names := j.Schema().AttrNames()
	if names[0] == names[1] {
		t.Errorf("self join produced duplicate attribute names: %v", names)
	}
	if !strings.Contains(names[1], "R.id") {
		t.Errorf("collision name = %q", names[1])
	}
}
