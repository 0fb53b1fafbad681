package relation

import (
	"errors"
	"math"
	"strings"
	"testing"

	"entityid/internal/schema"
	"entityid/internal/value"
)

func row(name, street, cuisine string) Tuple {
	return Tuple{value.String(name), value.String(street), value.String(cuisine)}
}

// mkExtSchema is mkSchema's relation extended the way §4.2 extends R:
// the same three columns, then a speciality and a rating it never
// modeled.
func mkExtSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.MustNew("R'",
		append(mkSchema(t).Attrs(),
			schema.Attribute{Name: "speciality", Kind: value.KindString},
			schema.Attribute{Name: "rating", Kind: value.KindInt}),
		[]string{"name", "street"},
	)
}

// extended is t padded to mkExtSchema's arity with what the ILFDs would
// have derived.
func extended(t Tuple, speciality, rating value.Value) Tuple {
	return append(t.Clone(), speciality, rating)
}

func mkImage(t *testing.T, lender *Relation) *Relation {
	t.Helper()
	r, err := NewImage(mkExtSchema(t), lender)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestImageRelationAdoptsAndIndexesNoKey: an image relation takes rows
// through Adopt alone, keeps nothing of the tuple it is handed but what
// that adds to the lender's, and guards no candidate key (the relation it
// extends guards them); the shape still is.
func TestImageRelationAdoptsAndIndexesNoKey(t *testing.T) {
	lender := NewBag(mkSchema(t)) // a bag: two rows under one key, for the image not to mind
	r := mkImage(t, lender)
	if !r.IsImage() || lender.IsImage() {
		t.Fatal("IsImage does not tell the two constructors apart")
	}
	first := row("Ching", "Co.B Rd.", "Chinese")
	lender.MustInsert(first...)
	ext := extended(first, value.String("Hunan"), value.Null)
	if err := r.Adopt(ext); err != nil {
		t.Fatal(err)
	}
	// What the relation keeps is its own: the caller's tuple is scratch.
	ext[0], ext[3] = value.String("overwritten"), value.String("overwritten")
	if got, want := r.Tuple(0), extended(first, value.String("Hunan"), value.Null); !got.Identical(want) {
		t.Errorf("row 0 = %v after its image was overwritten, want %v", got, want)
	}
	if len(r.cells.val) != 1 || r.tuples != nil {
		t.Errorf("row 0 keeps %d cells and %d whole rows, want the one derived cell", len(r.cells.val), len(r.tuples))
	}
	// The same key again: an ordinary relation refuses, an image does not
	// look.
	lender.MustInsert(first...)
	if err := r.Adopt(extended(first, value.Null, value.Int(3))); err != nil {
		t.Errorf("Adopt guarded a key: %v", err)
	}
	lender.MustInsert(row("Next", "Elm St.", "Thai")...)
	good := extended(row("Next", "Elm St.", "Thai"), value.Null, value.Null)
	for name, bad := range map[string]Tuple{
		"short":      good[:4],
		"long":       append(good.Clone(), value.Null),
		"wrong kind": extended(row("Next", "Elm St.", "Thai"), value.Null, value.String("five")),
	} {
		want := New(mkExtSchema(t)).Insert(bad)
		if err := r.Adopt(bad); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("Adopt(%s) = %v, want what Insert says: %v", name, err, want)
		}
	}
	if r.Len() != 2 {
		t.Fatalf("refused rows left a trace: %d rows", r.Len())
	}
	// Rows join an image through Adopt only, and only an image's.
	if err := r.Insert(good); err == nil || !strings.Contains(err.Error(), "Adopt") {
		t.Errorf("Insert on an image relation = %v", err)
	}
	if _, err := r.Admit(good); err == nil {
		t.Error("Admit on an image relation accepted")
	}
	if err := New(mkExtSchema(t)).Adopt(good); err == nil {
		t.Error("Adopt on an ordinary relation accepted")
	}
	if r.Len() != 2 {
		t.Fatalf("%d rows, want 2", r.Len())
	}
}

// TestImageRowsAreTheFullImage: every way of reading an image relation —
// a cell, a row into scratch, a row, all rows, an attribute, the printed
// table, multiset equality, a clone — answers what a relation holding the
// full extended images answers, for rows that derive nothing, a column
// past the source arity, and a NULL inside it an ILFD filled. The two
// accessors of the commit path allocate nothing.
func TestImageRowsAreTheFullImage(t *testing.T) {
	null := value.Null
	sources := []Tuple{
		row("VillageWok", "Wash.Ave.", "Chinese"),
		{value.String("Wok"), value.String("Elm St."), null}, // cuisine left NULL: derived below
		{value.String("NoStreet"), null, null},               // and stays NULL here
		row("", "", ""),
	}
	images := []Tuple{
		extended(sources[0], null, null),
		{sources[1][0], sources[1][1], value.String("Chinese"), value.String("Hunan"), value.Int(4)},
		extended(sources[2], value.String("Gyros"), null),
		extended(sources[3], value.String(""), value.Int(0)),
	}
	lender, full := New(mkSchema(t)), NewBag(mkExtSchema(t))
	r := mkImage(t, lender)
	for i := range sources {
		lender.MustInsert(sources[i]...)
		if err := r.Adopt(images[i]); err != nil {
			t.Fatal(err)
		}
		full.MustInsert(images[i]...)
	}
	if got, want := len(r.cells.val), 0+3+1+2; got != want {
		t.Errorf("%d cells kept, want %d: only what an image adds to its tuple", got, want)
	}
	var scratch Tuple
	for i, want := range images {
		scratch = r.TupleInto(scratch, i)
		if !scratch.Identical(want) || !r.Tuple(i).Identical(want) || !r.Tuples()[i].Identical(want) {
			t.Errorf("row %d: TupleInto %v, Tuple %v, Tuples %v; the full image is %v", i, scratch, r.Tuple(i), r.Tuples()[i], want)
		}
		for c, v := range want {
			if got := r.At(i, c); !value.Identical(got, v) || !value.Identical(r.MustValue(i, r.Schema().Attr(c).Name), v) {
				t.Errorf("At(%d, %d) = %v, the full image holds %v", i, c, got, v)
			}
		}
	}
	if r.String() != full.String() {
		t.Errorf("String:\n%s\nwant\n%s", r.String(), full.String())
	}
	if !r.Equal(full) || !full.Equal(r) || !r.Clone().Equal(full) {
		t.Error("an image relation, or its clone, is not Equal to the relation of its full images")
	}
	// A row read into scratch is the reader's: writing to it reaches
	// neither the image nor the tuple it extends.
	scratch = r.TupleInto(scratch, 1)
	scratch[0], scratch[2] = value.String("x"), value.String("x")
	if !r.Tuple(1).Identical(images[1]) || !lender.Tuple(1).Identical(sources[1]) {
		t.Error("writing to a scratch row changed the relation")
	}
	if avg := testing.AllocsPerRun(100, func() {
		scratch = r.TupleInto(scratch, 1)
		_ = r.At(1, 2)
		_ = r.At(1, 4)
		_ = r.At(2, 1)
	}); avg != 0 {
		t.Errorf("At and TupleInto into grown scratch allocate %.1f times", avg)
	}
}

// TestAdoptRefusals: a row with no tuple to extend, and an image that
// rewrites a cell its tuple holds, are refused with the relation as it
// was — extending fills NULLs and appends columns, nothing else, which is
// what lets a reader take every source cell from the lender.
func TestAdoptRefusals(t *testing.T) {
	lender := New(mkSchema(t))
	r := mkImage(t, lender)
	src := Tuple{value.String("Wok"), value.Null, value.String("Thai")}
	if err := r.Adopt(extended(src, value.Null, value.Null)); err == nil || !strings.Contains(err.Error(), "no tuple to extend") {
		t.Errorf("Adopt ahead of the lender = %v", err)
	}
	lender.MustInsert(src...)
	for name, bad := range map[string]Tuple{
		"another name":  {value.String("Wok2"), value.Null, src[2], value.String("Hunan"), value.Null},
		"a NULLed cell": {src[0], value.Null, value.Null, value.Null, value.Null},
		// The refused cell comes after one that would have been kept.
		"filled, then rewritten": {src[0], value.String("Elm St."), value.String("Chinese"), value.String("Hunan"), value.Int(1)},
	} {
		if err := r.Adopt(bad); err == nil || !strings.Contains(err.Error(), "where tuple") {
			t.Errorf("Adopt(%s) = %v, want it refused as disagreeing with the source tuple", name, err)
		}
	}
	if r.Len() != 0 || len(r.cells.val) != 0 || len(r.cells.col) != 0 {
		t.Fatalf("refused images left %d rows, %d cells", r.Len(), len(r.cells.val))
	}
	// An ILFD may fill the NULL the source left in its own column.
	filled := Tuple{src[0], value.String("Elm St."), src[2], value.String("Hunan"), value.Null}
	if err := r.Adopt(filled); err != nil {
		t.Fatal(err)
	}
	if !r.Tuple(0).Identical(filled) || r.Len() != 1 {
		t.Errorf("row 0 = %v, want %v", r.Tuple(0), filled)
	}
	if err := r.Adopt(filled); err == nil {
		t.Error("a second image of the one tuple was adopted")
	}

	// What NewImage refuses: a lender that is itself a view, and a schema
	// that does not begin with the lender's columns.
	if _, err := NewImage(mkExtSchema(t), r); err == nil {
		t.Error("an image of an image relation was created")
	}
	if _, err := NewImage(schema.MustNew("R'", mkSchema(t).Attrs()[:2], []string{"name", "street"}), lender); err == nil {
		t.Error("an image narrower than its lender was created")
	}
	attrs := mkSchema(t).Attrs()
	attrs[2].Kind = value.KindInt
	if _, err := NewImage(schema.MustNew("R'", attrs, []string{"name", "street"}), lender); err == nil {
		t.Error("an image that retypes a lender column was created")
	}
}

// TestImageRelationLookupSortClone pins what the missing index changes:
// LookupKey scans (and answers like an index: last row in, NULL matches
// nothing), Sort is refused, Clone is an ordinary relation.
func TestImageRelationLookupSortClone(t *testing.T) {
	rows := []Tuple{
		row("VillageWok", "Wash.Ave.", "Chinese"),
		row("Ching", "Co.B Rd.", "Chinese"),
		{value.String("NoStreet"), value.Null, value.String("Greek")},
		row("Ching", "Co.B Rd.", "Hunan"),
	}
	lender := NewBag(mkSchema(t)) // what an index answers, duplicates and all
	r := mkImage(t, lender)
	for _, tup := range rows {
		lender.MustInsert(tup...)
		if err := r.Adopt(extended(tup, value.String("x"), value.Null)); err != nil {
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
		if got, want := r.LookupKey(key...), lender.LookupKey(key...); got != want {
			t.Errorf("LookupKey(%v) = %d on the image, %d on the indexed relation it extends", key, got, want)
		}
	}
	if err := r.Sort("name"); err == nil || !strings.Contains(err.Error(), "Clone") {
		t.Errorf("Sort on an image relation = %v", err)
	}
	if !r.Tuple(0)[:3].Identical(rows[0]) {
		t.Error("a refused Sort moved rows")
	}

	c := r.Clone()
	if c.IsImage() || c.Len() != r.Len() || !c.Tuple(3).Identical(r.Tuple(3)) {
		t.Fatalf("Clone: image %v, %d rows, row 3 %v", c.IsImage(), c.Len(), c.Tuple(3))
	}
	if got := c.LookupKey(value.String("Ching"), value.String("Co.B Rd.")); got != 3 {
		t.Errorf("the clone's index finds Ching at %d, want 3", got)
	}
	if err := c.Insert(extended(row("VillageWok", "Wash.Ave.", "Thai"), value.Null, value.Null)); err == nil {
		t.Error("the clone does not guard its key")
	}
	if err := c.Sort("name"); err != nil {
		t.Fatal(err)
	}
	if got := c.LookupKey(value.String("VillageWok"), value.String("Wash.Ave.")); got != 3 || r.LookupKey(value.String("VillageWok"), value.String("Wash.Ave.")) != 0 {
		t.Errorf("after sorting the clone: VillageWok at %d in it (want 3), moved in the image", got)
	}
	// The clone is detached: the lender grows, the clone does not.
	lender.MustInsert(row("Later", "Oak St.", "Thai")...)
	if c.Len() != 4 {
		t.Errorf("the clone follows the lender: %d rows", c.Len())
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

// TestAdmitBehind: a tuple admitted behind others takes its place past
// them, its keys held apart from theirs by hash and checked against the
// tuples the relation holds.
func TestAdmitBehind(t *testing.T) {
	r := mkTable1R(t)
	first, second := row("Anjuman", "LeSalle Ave.", "Indian"), row("Kabul", "Elm St.", "Afghan")
	a1, err := r.AdmitBehind(first, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	held := a1.KeyHashes(nil)
	a2, err := r.AdmitBehind(second, 1, held)
	if err != nil || a1.At() != 3 || a2.At() != 4 || len(held) != 1 {
		t.Fatalf("admitted at %d and %d (%v), %d key hashes held; want 3, 4 and one", a1.At(), a2.At(), err, len(held))
	}
	// The same key behind a tuple that holds it: held, whatever else the
	// tuple holds; the key of a tuple the relation holds: a duplicate.
	if _, err := r.AdmitBehind(row("Anjuman", "LeSalle Ave.", "Thai"), 2, held); !errors.Is(err, ErrHeld) {
		t.Fatalf("a key held ahead = %v, want ErrHeld", err)
	}
	if _, err := r.AdmitBehind(r.Tuple(0), 2, held); err == nil || errors.Is(err, ErrHeld) {
		t.Fatalf("a key the relation holds = %v, want a key violation", err)
	}
	if got := r.Tuple(0); len(got) > 1 {
		nulled := Tuple{got[0], value.Null, got[2]}
		if _, err := r.AdmitBehind(nulled, 2, held); err != nil {
			t.Fatalf("a key with a NULL is neither held nor a duplicate: %v", err)
		}
	}
	if err := r.InsertAdmitted(a2); err == nil {
		t.Fatal("the tuple behind took its place before the one ahead of it")
	}
	for _, a := range []Admission{a1, a2} {
		if err := r.InsertAdmitted(a); err != nil {
			t.Fatal(err)
		}
	}
	if r.LookupKey(second[0], second[1]) != 4 {
		t.Fatalf("the tuple behind is at %d, want 4", r.LookupKey(second[0], second[1]))
	}
}

// TestAdmitRefusesThePositionNoBackLinkHolds: a position index links
// positions as int32, so the tuple that would take position 2³¹−1 is
// refused — an error, the relation unchanged — not filed under a position
// that wrapped. (The limit is lowered here; nobody builds 2³¹ tuples to
// find out.)
func TestAdmitRefusesThePositionNoBackLinkHolds(t *testing.T) {
	if r := New(mkSchema(t)); r.limit != math.MaxInt32 {
		t.Fatalf("a relation admits %d tuples, want 2³¹−1", r.limit)
	}
	r := mkTable1R(t)
	r.limit = 4
	if err := r.Insert(row("Fourth", "Elm St.", "Thai")); err != nil {
		t.Fatal(err)
	}
	tup := row("Fifth", "Oak St.", "Thai")
	insertErr := r.Insert(tup)
	_, admitErr := r.Admit(tup)
	for _, err := range []error{insertErr, admitErr} {
		if err == nil || !strings.Contains(err.Error(), "full") {
			t.Errorf("the tuple past the limit: %v, want it refused as full", err)
		}
	}
	if r.Len() != 4 || r.LookupKey(tup[0], tup[1]) != -1 || r.LookupKey(value.String("Fourth"), value.String("Elm St.")) != 3 {
		t.Errorf("the refusal changed the relation: %d tuples", r.Len())
	}
}

// TestViewLaysOutItsImagesCells: a view reads its image's rows in its own
// columns — the lender's first, the image's derived ones wherever the
// view puts them, NULL in the columns only the view has — and grows as
// the image adopts, holding no cell of its own. What NewView refuses: a
// view of a relation that is not an image, or of a view, and a schema
// that moves, retypes or drops one of the image's columns.
func TestViewLaysOutItsImagesCells(t *testing.T) {
	lender := New(mkSchema(t))
	img := mkImage(t, lender)
	base := mkSchema(t).Attrs()
	viewSchema := func(extra ...schema.Attribute) *schema.Schema {
		return schema.MustNew("R'", append(append([]schema.Attribute(nil), base...), extra...), []string{"name", "street"})
	}
	str := func(n string) schema.Attribute { return schema.Attribute{Name: n, Kind: value.KindString} }
	rating := schema.Attribute{Name: "rating", Kind: value.KindInt}
	v, err := NewView(viewSchema(rating, str("loc_other"), str("speciality")), img)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsImage() {
		t.Error("a view is not an image relation")
	}
	src := Tuple{value.String("Wok"), value.Null, value.String("Thai")}
	lender.MustInsert(src...)
	if err := img.Adopt(Tuple{src[0], value.String("Elm St."), src[2], value.String("Hunan"), value.Int(4)}); err != nil {
		t.Fatal(err)
	}
	want := Tuple{src[0], value.String("Elm St."), src[2], value.Int(4), value.Null, value.String("Hunan")}
	if got := v.Tuple(0); v.Len() != 1 || !got.Identical(want) {
		t.Fatalf("view row 0 = %v of %d rows, want %v of 1", got, v.Len(), want)
	}
	for c, w := range want {
		if got := v.At(0, c); !value.Identical(got, w) {
			t.Errorf("At(0, %d) = %v, want %v", c, got, w)
		}
	}
	if err := v.Adopt(want); err == nil {
		t.Error("a view adopted a row")
	}
	for name, s := range map[string]*schema.Schema{
		"a derived column dropped":  viewSchema(rating),
		"a derived column retyped":  viewSchema(rating, schema.Attribute{Name: "speciality", Kind: value.KindInt}),
		"a lender column moved":     schema.MustNew("R'", []schema.Attribute{base[1], base[0], base[2], str("speciality"), rating}, []string{"name", "street"}),
		"a derived column in front": schema.MustNew("R'", []schema.Attribute{base[0], base[1], str("speciality"), base[2], rating}, []string{"name", "street"}),
	} {
		if _, err := NewView(s, img); err == nil {
			t.Errorf("%s: view created", name)
		}
	}
	if _, err := NewView(img.Schema(), v); err == nil {
		t.Error("a view of a view was created")
	}
	if _, err := NewView(mkSchema(t), lender); err == nil {
		t.Error("a view of an ordinary relation was created")
	}
}
