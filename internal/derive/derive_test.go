package derive

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"entityid/internal/ilfd"
	"entityid/internal/paperdata"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

func strAttr(names ...string) []schema.Attribute {
	out := make([]schema.Attribute, len(names))
	for i, n := range names {
		out[i] = schema.Attribute{Name: n, Kind: value.KindString}
	}
	return out
}

// TestExtendTable6R reproduces the R′ column of Table 6: extending
// Table 5's R with speciality derives Hunan (via I5), Gyros (via the
// I7∘I8 chain) and Mughalai (via I6), leaving the Indian TwinCities and
// VillageWok rows NULL.
func TestExtendTable6R(t *testing.T) {
	r := paperdata.Table5R()
	got, conflicts, err := Extend(r, "R'", strAttr("speciality", "county"), paperdata.Example3ILFDs(), Options{})
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if len(conflicts) != 0 {
		t.Fatalf("conflicts: %v", conflicts)
	}
	want := map[string]string{ // street (unique per row) -> derived speciality
		"Co.B2":       "Hunan",
		"Co.B3":       "",
		"FrontAve.":   "Gyros",
		"LeSalleAve.": "Mughalai",
		"Wash.Ave.":   "",
	}
	for i := 0; i < got.Len(); i++ {
		street := got.MustValue(i, "street").Str()
		spec := got.MustValue(i, "speciality")
		if want[street] == "" {
			if !spec.IsNull() {
				t.Errorf("row %s: speciality = %v, want NULL", street, spec)
			}
			continue
		}
		if spec.IsNull() || spec.Str() != want[street] {
			t.Errorf("row %s: speciality = %v, want %s", street, spec, want[street])
		}
	}
	// The chained county derivation (I7) must also be visible.
	for i := 0; i < got.Len(); i++ {
		if got.MustValue(i, "street").Str() == "FrontAve." {
			if c := got.MustValue(i, "county"); c.IsNull() || c.Str() != "Ramsey" {
				t.Errorf("county = %v, want Ramsey", c)
			}
		}
	}
	// Matches the pinned Table 6 fixture projected onto shared attrs.
	wantRel := paperdata.Table6RPrime()
	for i := 0; i < got.Len(); i++ {
		name := got.MustValue(i, "name").Str()
		cui := got.MustValue(i, "cuisine").Str()
		j := wantRel.LookupKey(value.String(name), value.String(cui))
		if j < 0 {
			t.Errorf("row (%s,%s) not in Table 6 fixture", name, cui)
			continue
		}
		if !value.Identical(got.MustValue(i, "speciality"), wantRel.MustValue(j, "speciality")) {
			t.Errorf("row (%s,%s): speciality %v vs fixture %v",
				name, cui, got.MustValue(i, "speciality"), wantRel.MustValue(j, "speciality"))
		}
	}
}

// TestExtendTable6S reproduces the S′ column of Table 6: extending
// Table 5's S with cuisine via I1–I4 fills every row.
func TestExtendTable6S(t *testing.T) {
	sRel := paperdata.Table5S()
	got, conflicts, err := Extend(sRel, "S'", strAttr("cuisine"), paperdata.Example3ILFDs(), Options{})
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if len(conflicts) != 0 {
		t.Fatalf("conflicts: %v", conflicts)
	}
	want := map[string]string{
		"Hunan":    "Chinese",
		"Sichuan":  "Chinese",
		"Gyros":    "Greek",
		"Mughalai": "Indian",
	}
	for i := 0; i < got.Len(); i++ {
		spec := got.MustValue(i, "speciality").Str()
		cui := got.MustValue(i, "cuisine")
		if cui.IsNull() || cui.Str() != want[spec] {
			t.Errorf("speciality %s: cuisine = %v, want %s", spec, cui, want[spec])
		}
	}
}

func TestExtendRejectsDuplicateAttribute(t *testing.T) {
	r := paperdata.Table5R()
	if _, _, err := Extend(r, "R'", strAttr("cuisine"), nil, Options{}); err == nil {
		t.Error("extending with existing attribute accepted")
	}
}

func TestExtendPreservesSourceValues(t *testing.T) {
	// An ILFD contradicting a source value must not overwrite it.
	sch := schema.MustNew("T", strAttr("a", "b"), []string{"a"})
	r := relation.New(sch)
	r.MustInsert(value.String("x"), value.String("original"))
	fs := ilfd.Set{ilfd.MustParse("a=x -> b=derived")}

	got, conflicts, err := Extend(r, "T'", nil, fs, Options{Mode: FirstMatch})
	if err != nil {
		t.Fatal(err)
	}
	if v := got.MustValue(0, "b").Str(); v != "original" {
		t.Errorf("FirstMatch overwrote source value: %q", v)
	}
	if len(conflicts) != 0 {
		t.Errorf("FirstMatch reported conflicts: %v", conflicts)
	}
	got, conflicts, err = Extend(r, "T'", nil, fs, Options{Mode: Fixpoint})
	if err != nil {
		t.Fatal(err)
	}
	if v := got.MustValue(0, "b").Str(); v != "original" {
		t.Errorf("Fixpoint overwrote source value: %q", v)
	}
	if len(conflicts) != 1 {
		t.Errorf("Fixpoint conflicts = %v, want 1", conflicts)
	} else {
		if !strings.Contains(conflicts[0].Error(), `"b"`) {
			t.Errorf("conflict message = %q", conflicts[0].Error())
		}
	}
}

func TestFirstMatchCutSemantics(t *testing.T) {
	// Two ILFDs derive different values for b; rule order decides under
	// FirstMatch (the Prolog cut), and Fixpoint reports the conflict.
	sch := schema.MustNew("T", strAttr("a", "b"), []string{"a"})
	r := relation.New(sch)
	r.MustInsert(value.String("x"), value.Null)
	fs := ilfd.Set{
		ilfd.MustParse("a=x -> b=first"),
		ilfd.MustParse("a=x -> b=second"),
	}
	got, conflicts, err := Extend(r, "T'", nil, fs, Options{Mode: FirstMatch})
	if err != nil {
		t.Fatal(err)
	}
	if v := got.MustValue(0, "b").Str(); v != "first" {
		t.Errorf("cut semantics: b = %q, want first", v)
	}
	if len(conflicts) != 0 {
		t.Errorf("FirstMatch conflicts = %v", conflicts)
	}
	// Reversed order, reversed winner.
	rev := ilfd.Set{fs[1], fs[0]}
	got, _, err = Extend(r, "T'", nil, rev, Options{Mode: FirstMatch})
	if err != nil {
		t.Fatal(err)
	}
	if v := got.MustValue(0, "b").Str(); v != "second" {
		t.Errorf("reversed cut: b = %q, want second", v)
	}
	// Fixpoint surfaces the disagreement.
	_, conflicts, err = Extend(r, "T'", nil, fs, Options{Mode: Fixpoint})
	if err != nil {
		t.Fatal(err)
	}
	if len(conflicts) != 1 {
		t.Errorf("Fixpoint conflicts = %v, want 1", conflicts)
	}
}

func TestChainingDepth(t *testing.T) {
	// a -> b -> c -> d chain must resolve in both modes.
	sch := schema.MustNew("T", strAttr("a", "b", "c", "d"), []string{"a"})
	r := relation.New(sch)
	r.MustInsert(value.String("1"), value.Null, value.Null, value.Null)
	fs := ilfd.Set{
		// Deliberately ordered so a single pass cannot finish.
		ilfd.MustParse("c=3 -> d=4"),
		ilfd.MustParse("b=2 -> c=3"),
		ilfd.MustParse("a=1 -> b=2"),
	}
	for _, mode := range []Mode{FirstMatch, Fixpoint} {
		got, conflicts, err := Extend(r, "T'", nil, fs, Options{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(conflicts) != 0 {
			t.Fatalf("%v conflicts: %v", mode, conflicts)
		}
		for attr, want := range map[string]string{"b": "2", "c": "3", "d": "4"} {
			if v := got.MustValue(0, attr); v.IsNull() || v.Str() != want {
				t.Errorf("%v: %s = %v, want %s", mode, attr, v, want)
			}
		}
	}
}

func TestUnknownModeError(t *testing.T) {
	r := paperdata.Table5R()
	_, _, err := Extend(r, "R'", nil, nil, Options{Mode: Mode(42)})
	if err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("unknown mode error = %v", err)
	}
	if got := Mode(42).String(); got != "mode(42)" {
		t.Errorf("Mode(42).String() = %q", got)
	}
	if FirstMatch.String() != "first-match" || Fixpoint.String() != "fixpoint" {
		t.Error("mode names wrong")
	}
}

func TestDerivable(t *testing.T) {
	fs := paperdata.Example3ILFDs()
	d := Derivable(fs)
	for _, attr := range []string{"cuisine", "speciality", "county"} {
		if !d[attr] {
			t.Errorf("Derivable missing %q", attr)
		}
	}
	if d["name"] || d["street"] {
		t.Error("Derivable reports non-consequent attributes")
	}
}

// TestExtendWithTablesMatchesRules checks the §4.2 relational pipeline
// derives exactly what rule-driven derivation derives — cut and fixpoint
// alike, with no conflict — on Example 3, including the chained I7∘I8
// values, and in bulk: 3,000 tuples under a uniform speciality → cuisine
// family that leaves some specialities underived.
func TestExtendWithTablesMatchesRules(t *testing.T) {
	kindOf := func(string) value.Kind { return value.KindString }
	bulk := relation.New(schema.MustNew("S", strAttr("name", "speciality"), []string{"name"}))
	var uniform ilfd.Set
	for k := 0; k < 40; k++ {
		if k%5 != 0 {
			uniform = append(uniform, ilfd.MustParse(fmt.Sprintf("speciality=spec%d -> cuisine=cuisine%d", k, k%7)))
		}
	}
	for i := 0; i < 3000; i++ {
		bulk.MustInsert(value.String(fmt.Sprintf("r%d", i)), value.String(fmt.Sprintf("spec%d", i%40)))
	}
	for _, fixture := range []struct {
		rel   *relation.Relation
		extra []schema.Attribute
		fs    ilfd.Set
	}{
		{paperdata.Table5R(), strAttr("speciality", "county"), paperdata.Example3ILFDs()},
		{paperdata.Table5S(), strAttr("cuisine", "street"), paperdata.Example3ILFDs()},
		{bulk, strAttr("cuisine"), uniform},
	} {
		tables, rest, err := ilfd.FromSet(fixture.fs, kindOf)
		if err != nil {
			t.Fatalf("FromSet: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("unexpected non-uniform ILFDs: %v", rest)
		}
		byRules, _, err := Extend(fixture.rel, "X'", fixture.extra, fixture.fs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		byFixpoint, conflicts, err := Extend(fixture.rel, "X'", fixture.extra, fixture.fs, Options{Mode: Fixpoint})
		if err != nil {
			t.Fatal(err)
		}
		if len(conflicts) != 0 {
			t.Fatalf("fixpoint conflicts: %v", conflicts)
		}
		byTables, conflicts, err := ExtendWithTables(fixture.rel, "X'", fixture.extra, tables, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(conflicts) != 0 {
			t.Fatalf("table conflicts: %v", conflicts)
		}
		if !byRules.Equal(byFixpoint) || !byRules.Equal(byTables) {
			t.Errorf("cut, fixpoint and table-driven extensions of %s differ:\n%s\nvs\n%s\nvs\n%s",
				fixture.rel.Schema().Name(), byRules, byFixpoint, byTables)
		}
	}
}

func TestExtendWithTablesConflictDetection(t *testing.T) {
	sch := schema.MustNew("T", strAttr("a", "b"), []string{"a"})
	r := relation.New(sch)
	r.MustInsert(value.String("x"), value.String("original"))
	tab := ilfd.MustNewTable("IM(a;b)", []string{"a"}, "b", nil)
	tab.MustAdd(value.String("x"), value.String("derived"))

	_, conflicts, err := ExtendWithTables(r, "T'", nil, []*ilfd.Table{tab}, Options{Mode: Fixpoint})
	if err != nil {
		t.Fatal(err)
	}
	if len(conflicts) != 1 {
		t.Errorf("conflicts = %v, want 1", conflicts)
	}
	// FirstMatch: source wins silently.
	got, conflicts, err := ExtendWithTables(r, "T'", nil, []*ilfd.Table{tab}, Options{Mode: FirstMatch})
	if err != nil {
		t.Fatal(err)
	}
	if len(conflicts) != 0 {
		t.Errorf("FirstMatch conflicts = %v", conflicts)
	}
	if v := got.MustValue(0, "b").Str(); v != "original" {
		t.Errorf("b = %q", v)
	}
}

func TestExtendWithTablesRejectsDuplicateAttr(t *testing.T) {
	r := paperdata.Table5R()
	if _, _, err := ExtendWithTables(r, "R'", strAttr("cuisine"), nil, Options{}); err == nil {
		t.Error("duplicate attribute accepted")
	}
}

func TestExtendEmptyILFDSetLeavesNulls(t *testing.T) {
	r := paperdata.Table5R()
	got, conflicts, err := Extend(r, "R'", strAttr("speciality"), nil, Options{})
	if err != nil || len(conflicts) != 0 {
		t.Fatalf("Extend: %v %v", err, conflicts)
	}
	for i := 0; i < got.Len(); i++ {
		if !got.MustValue(i, "speciality").IsNull() {
			t.Errorf("row %d: speciality not NULL with empty ILFD set", i)
		}
	}
}

// TestFloatAntecedentFollowsEqual: the antecedent index is keyed by
// value, and a float's == is not its Equal — the two zeros are equal,
// a NaN equals nothing. The indexed derivation must follow Equal.
func TestFloatAntecedentFollowsEqual(t *testing.T) {
	sch := schema.MustNew("T", []schema.Attribute{{Name: "id", Kind: value.KindInt}, {Name: "f", Kind: value.KindFloat}}, []string{"id"})
	r := relation.New(sch)
	negZero, nan := value.Float(math.Copysign(0, -1)), value.Float(math.NaN())
	r.MustInsert(value.Int(0), negZero)
	r.MustInsert(value.Int(1), value.Float(0))
	r.MustInsert(value.Int(2), nan)
	fs := ilfd.Set{
		ilfd.MustNew(ilfd.Conditions{{Attr: "f", Val: value.Float(0)}}, ilfd.Conditions{ilfd.C("x", "zero")}),
		ilfd.MustNew(ilfd.Conditions{{Attr: "f", Val: nan}}, ilfd.Conditions{ilfd.C("x", "nan")}),
	}
	got, _, err := Extend(r, "T'", strAttr("x"), fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []value.Value{value.String("zero"), value.String("zero"), value.Null} {
		if x := got.MustValue(i, "x"); !value.Identical(x, want) {
			t.Errorf("f = %v: x = %v, want %v", got.MustValue(i, "f"), x, want)
		}
	}
}
