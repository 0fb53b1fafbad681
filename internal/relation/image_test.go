package relation

import (
	"strings"
	"testing"

	"entityid/internal/value"
)

func row(name, street, cuisine string) Tuple {
	return Tuple{value.String(name), value.String(street), value.String(cuisine)}
}

// TestImageRelationAdoptsAndIndexesNoKey: a row of an image relation is
// the tuple it was given, not a copy; no candidate key is guarded (the
// relation it extends guards them); the shape still is.
func TestImageRelationAdoptsAndIndexesNoKey(t *testing.T) {
	r := NewImage(mkSchema(t))
	if !r.IsImage() || New(mkSchema(t)).IsImage() {
		t.Fatal("IsImage does not tell the two constructors apart")
	}
	first := row("Ching", "Co.B Rd.", "Chinese")
	if err := r.Adopt(first); err != nil {
		t.Fatal(err)
	}
	if &r.Tuple(0)[0] != &first[0] {
		t.Error("Adopt copied the tuple")
	}
	// The same key again: an ordinary relation refuses, an image does not
	// look.
	if err := r.Adopt(row("Ching", "Co.B Rd.", "Hunan")); err != nil {
		t.Errorf("Adopt guarded a key: %v", err)
	}
	for name, bad := range map[string]Tuple{
		"short":      first[:2],
		"long":       append(first.Clone(), value.Null),
		"wrong kind": {value.String("a"), value.Int(1), value.String("c")},
	} {
		want := New(mkSchema(t)).Insert(bad)
		if err := r.Adopt(bad); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("Adopt(%s) = %v, want what Insert says: %v", name, err, want)
		}
	}
	if r.Len() != 2 {
		t.Fatalf("refused rows left a trace: %d rows", r.Len())
	}
	// Rows join an image through Adopt only, and only an image's.
	tup := row("OldCountry", "Co.B2 Rd.", "American")
	if err := r.Insert(tup); err == nil || !strings.Contains(err.Error(), "Adopt") {
		t.Errorf("Insert on an image relation = %v", err)
	}
	if err := r.CanInsert(tup); err == nil {
		t.Error("CanInsert on an image relation accepted")
	}
	if err := New(mkSchema(t)).Adopt(tup); err == nil {
		t.Error("Adopt on an ordinary relation accepted")
	}
	if r.Len() != 2 {
		t.Fatalf("%d rows, want 2", r.Len())
	}
}

// TestImageRelationLookupSortClone pins what the missing index changes:
// LookupKey scans (and answers like an index: last row in, NULL matches
// nothing), Sort is refused, Clone is an ordinary relation.
func TestImageRelationLookupSortClone(t *testing.T) {
	r := NewImage(mkSchema(t))
	rows := []Tuple{
		row("VillageWok", "Wash.Ave.", "Chinese"),
		row("Ching", "Co.B Rd.", "Chinese"),
		{value.String("NoStreet"), value.Null, value.String("Greek")},
		row("Ching", "Co.B Rd.", "Hunan"),
	}
	indexed := NewBag(mkSchema(t)) // what an index answers, duplicates and all
	for _, tup := range rows {
		if err := r.Adopt(tup.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := indexed.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range [][]value.Value{
		{value.String("VillageWok"), value.String("Wash.Ave.")},
		{value.String("Ching"), value.String("Co.B Rd.")},
		{value.String("NoStreet"), value.Null},
		{value.String("Nobody"), value.String("Nowhere")},
		{value.String("Ching")},
	} {
		if got, want := r.LookupKey(key...), indexed.LookupKey(key...); got != want {
			t.Errorf("LookupKey(%v) = %d on the image, %d on an indexed relation", key, got, want)
		}
	}
	if err := r.Sort("name"); err == nil || !strings.Contains(err.Error(), "Clone") {
		t.Errorf("Sort on an image relation = %v", err)
	}
	if !r.Tuple(0).Identical(rows[0]) {
		t.Error("a refused Sort moved rows")
	}

	c := r.Clone()
	if c.IsImage() || c.Len() != r.Len() || &c.Tuple(0)[0] == &r.Tuple(0)[0] {
		t.Fatalf("Clone: image %v, %d rows, shares row 0 %v", c.IsImage(), c.Len(), &c.Tuple(0)[0] == &r.Tuple(0)[0])
	}
	if got := c.LookupKey(value.String("Ching"), value.String("Co.B Rd.")); got != 3 {
		t.Errorf("the clone's index finds Ching at %d, want 3", got)
	}
	if err := c.Insert(row("VillageWok", "Wash.Ave.", "Thai")); err == nil {
		t.Error("the clone does not guard its key")
	}
	if err := c.Sort("name"); err != nil {
		t.Fatal(err)
	}
	if got := c.LookupKey(value.String("VillageWok"), value.String("Wash.Ave.")); got != 3 || r.LookupKey(value.String("VillageWok"), value.String("Wash.Ave.")) != 0 {
		t.Errorf("after sorting the clone: VillageWok at %d in it (want 3), moved in the image", got)
	}
}

// TestAdmitThenInsertAdmitted: the admission is the check Insert would
// make, kept; it is good for its relation until that relation changes.
func TestAdmitThenInsertAdmitted(t *testing.T) {
	r := mkTable1R(t)
	tup := row("Anjuman", "LeSalle Ave.", "Indian")
	a, err := r.Admit(tup)
	if err != nil || !a.By(r) || a.By(mkTable1R(t)) || &a.Tuple()[0] != &tup[0] {
		t.Fatalf("Admit = %+v, %v", a, err)
	}
	if r.Len() != 3 || r.LookupKey(tup[0], tup[1]) != -1 {
		t.Fatal("Admit changed the relation")
	}
	if err := mkTable1R(t).InsertAdmitted(a); err == nil {
		t.Error("another relation took the admission")
	}
	if err := r.InsertAdmitted(a); err != nil {
		t.Fatal(err)
	}
	if r.LookupKey(tup[0], tup[1]) != 3 || &r.Tuple(3)[0] == &tup[0] {
		t.Errorf("admitted tuple found at %d (want 3), copied %v", r.LookupKey(tup[0], tup[1]), &r.Tuple(3)[0] != &tup[0])
	}
	if err := r.InsertAdmitted(a); err == nil || r.Len() != 4 {
		t.Errorf("a spent admission was taken again: %v, %d tuples", err, r.Len())
	}
	if _, err := r.Admit(tup); err == nil || !strings.Contains(err.Error(), "key (name,street) violation") {
		t.Errorf("Admit of a duplicate key = %v", err)
	}
	if _, err := r.Admit(tup[:2]); err == nil {
		t.Error("Admit of a short tuple accepted")
	}
}
