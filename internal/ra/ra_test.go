package ra

import (
	"testing"

	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

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
