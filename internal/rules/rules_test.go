package rules

import (
	"strings"
	"testing"

	"entityid/internal/ilfd"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

func mkPair(t *testing.T) (*relation.Relation, *relation.Relation) {
	t.Helper()
	r := relation.New(schema.MustNew("R",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "cuisine", Kind: value.KindString},
			{Name: "speciality", Kind: value.KindString},
			{Name: "rating", Kind: value.KindInt},
		},
		[]string{"name"},
	))
	r.MustInsert(value.String("twincities"), value.String("chinese"), value.String("hunan"), value.Int(4))
	r.MustInsert(value.String("anjuman"), value.String("indian"), value.String("mughalai"), value.Int(5))
	r.MustInsert(value.String("mystery"), value.Null, value.Null, value.Int(2))

	s := relation.New(schema.MustNew("S",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "cuisine", Kind: value.KindString},
			{Name: "speciality", Kind: value.KindString},
			{Name: "rating", Kind: value.KindInt},
		},
		[]string{"name"},
	))
	s.MustInsert(value.String("twincities"), value.String("chinese"), value.String("hunan"), value.Int(4))
	s.MustInsert(value.String("olympia"), value.String("greek"), value.String("gyros"), value.Int(3))
	return r, s
}

func TestOpString(t *testing.T) {
	want := map[Op]string{Eq: "=", Ne: "≠", Lt: "<", Le: "≤", Gt: ">", Ge: "≥", Op(99): "op(99)"}
	for op, w := range want {
		if got := op.String(); got != w {
			t.Errorf("Op(%d).String() = %q, want %q", int(op), got, w)
		}
	}
}

func TestOpEval(t *testing.T) {
	one, two := value.Int(1), value.Int(2)
	cases := []struct {
		op   Op
		a, b value.Value
		want bool
	}{
		{Eq, one, one, true},
		{Eq, one, two, false},
		{Ne, one, two, true},
		{Ne, one, one, false},
		{Lt, one, two, true},
		{Le, one, one, true},
		{Gt, two, one, true},
		{Ge, one, two, false},
		// NULL operands: always false, every operator.
		{Eq, value.Null, value.Null, false},
		{Ne, value.Null, one, false},
		{Lt, value.Null, one, false},
		// Cross-kind comparisons are false (domains were reconciled at
		// schema integration; mismatches indicate misuse).
		{Ne, one, value.String("1"), false},
		{Lt, one, value.String("2"), false},
	}
	for _, c := range cases {
		if got := c.op.eval(c.a, c.b); got != c.want {
			t.Errorf("%v.eval(%v, %v) = %t, want %t", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestPredicateHolds(t *testing.T) {
	r, s := mkPair(t)
	p := Predicate{Left: Attr1("name"), Op: Eq, Right: Attr2("name")}
	if !p.Holds(r, r.Tuple(0), s, s.Tuple(0)) {
		t.Error("name=name predicate fails on equal names")
	}
	if p.Holds(r, r.Tuple(1), s, s.Tuple(1)) {
		t.Error("name=name predicate holds on different names")
	}
	pc := Predicate{Left: Attr1("cuisine"), Op: Eq, Right: Const(value.String("chinese"))}
	if !pc.Holds(r, r.Tuple(0), s, s.Tuple(0)) {
		t.Error("const predicate fails")
	}
	// NULL attribute: predicate false.
	if pc.Holds(r, r.Tuple(2), s, s.Tuple(0)) {
		t.Error("predicate holds on NULL attribute")
	}
	// Unknown attribute resolves to NULL: predicate false.
	pu := Predicate{Left: Attr1("bogus"), Op: Eq, Right: Const(value.String("x"))}
	if pu.Holds(r, r.Tuple(0), s, s.Tuple(0)) {
		t.Error("predicate holds on unknown attribute")
	}
}

func TestOperandString(t *testing.T) {
	if got := Attr1("name").String(); got != "e1.name" {
		t.Errorf("Attr1 String = %q", got)
	}
	if got := Attr2("cui").String(); got != "e2.cui" {
		t.Errorf("Attr2 String = %q", got)
	}
	if got := Const(value.String("x")).String(); got != `"x"` {
		t.Errorf("Const String = %q", got)
	}
}

// TestPaperRuleR1R2 reproduces the §3.2 example: r1 is a well-formed
// identity rule; r2 is rejected because its antecedent does not imply
// e2.cuisine = e1.cuisine.
func TestPaperRuleR1R2(t *testing.T) {
	r1, err := NewIdentity("r1", []Predicate{
		{Left: Attr1("cuisine"), Op: Eq, Right: Const(value.String("Chinese"))},
		{Left: Attr2("cuisine"), Op: Eq, Right: Const(value.String("Chinese"))},
	})
	if err != nil {
		t.Fatalf("r1 rejected: %v", err)
	}
	if len(r1.Preds) != 2 {
		t.Errorf("r1 predicates = %d", len(r1.Preds))
	}
	_, err = NewIdentity("r2", []Predicate{
		{Left: Attr1("cuisine"), Op: Eq, Right: Const(value.String("Chinese"))},
	})
	if err == nil {
		t.Fatal("r2 accepted; the paper's well-formedness condition not enforced")
	}
	if !strings.Contains(err.Error(), "r2") && !strings.Contains(err.Error(), "imply") {
		t.Errorf("r2 rejection message unhelpful: %v", err)
	}
}

func TestIdentityWellFormedness(t *testing.T) {
	// Cross equality makes an attribute safe.
	if _, err := NewIdentity("ok", []Predicate{
		{Left: Attr1("name"), Op: Eq, Right: Attr2("name")},
	}); err != nil {
		t.Errorf("cross-equality rule rejected: %v", err)
	}
	// Reversed orientation also recognised.
	if _, err := NewIdentity("ok2", []Predicate{
		{Left: Attr2("name"), Op: Eq, Right: Attr1("name")},
		{Left: Const(value.String("Chinese")), Op: Eq, Right: Attr1("cuisine")},
		{Left: Attr2("cuisine"), Op: Eq, Right: Const(value.String("Chinese"))},
	}); err != nil {
		t.Errorf("reversed orientations rejected: %v", err)
	}
	// Constant pins with different constants do not imply equality.
	if _, err := NewIdentity("bad", []Predicate{
		{Left: Attr1("cuisine"), Op: Eq, Right: Const(value.String("Chinese"))},
		{Left: Attr2("cuisine"), Op: Eq, Right: Const(value.String("Greek"))},
	}); err == nil {
		t.Error("different-constant rule accepted")
	}
	// Inequality predicates never pin attributes.
	if _, err := NewIdentity("bad2", []Predicate{
		{Left: Attr1("rating"), Op: Ge, Right: Attr2("rating")},
	}); err == nil {
		t.Error("inequality-only rule accepted")
	}
	// Same-side "cross" equality (e1.a = e1.a) must not count.
	if _, err := NewIdentity("bad3", []Predicate{
		{Left: Attr1("name"), Op: Eq, Right: Attr1("name")},
	}); err == nil {
		t.Error("same-side equality rule accepted")
	}
	if _, err := NewIdentity("empty", nil); err == nil {
		t.Error("empty identity rule accepted")
	}
}

func TestIdentityHolds(t *testing.T) {
	r, s := mkPair(t)
	rule := MustNewIdentity("keyish", []Predicate{
		{Left: Attr1("name"), Op: Eq, Right: Attr2("name")},
		{Left: Attr1("cuisine"), Op: Eq, Right: Attr2("cuisine")},
	})
	if !rule.Holds(r, r.Tuple(0), s, s.Tuple(0)) {
		t.Error("rule fails on matching pair")
	}
	if rule.Holds(r, r.Tuple(1), s, s.Tuple(1)) {
		t.Error("rule holds on non-matching pair")
	}
	// NULL cuisine on e1: predicate false, rule does not fire (sound).
	if rule.Holds(r, r.Tuple(2), s, s.Tuple(0)) {
		t.Error("rule holds with NULL attribute")
	}
	if got := rule.String(); !strings.Contains(got, "≡") || !strings.Contains(got, "keyish") {
		t.Errorf("String = %q", got)
	}
}

func TestDistinctnessValidation(t *testing.T) {
	// The paper's r3: e1.speciality="Mughalai" ∧ e2.cuisine≠"Indian" → e1 ≢ e2.
	r3, err := NewDistinctness("r3", []Predicate{
		{Left: Attr1("speciality"), Op: Eq, Right: Const(value.String("Mughalai"))},
		{Left: Attr2("cuisine"), Op: Ne, Right: Const(value.String("Indian"))},
	})
	if err != nil {
		t.Fatalf("r3 rejected: %v", err)
	}
	if got := r3.String(); !strings.Contains(got, "≢") {
		t.Errorf("String = %q", got)
	}
	// Must involve both sides.
	if _, err := NewDistinctness("one-sided", []Predicate{
		{Left: Attr1("speciality"), Op: Eq, Right: Const(value.String("Mughalai"))},
	}); err == nil {
		t.Error("one-sided distinctness rule accepted")
	}
	if _, err := NewDistinctness("empty", nil); err == nil {
		t.Error("empty distinctness rule accepted")
	}
}

func TestDistinctnessHolds(t *testing.T) {
	r, s := mkPair(t)
	rule := MustNewDistinctness("r3", []Predicate{
		{Left: Attr1("speciality"), Op: Eq, Right: Const(value.String("mughalai"))},
		{Left: Attr2("cuisine"), Op: Ne, Right: Const(value.String("indian"))},
	})
	// r tuple 1 is the mughalai restaurant; s tuple 1 is greek: distinct.
	if !rule.Holds(r, r.Tuple(1), s, s.Tuple(1)) {
		t.Error("distinctness rule fails on genuinely distinct pair")
	}
	// s tuple 0 is chinese — also ≠ indian, so the rule fires there too.
	if !rule.Holds(r, r.Tuple(1), s, s.Tuple(0)) {
		t.Error("distinctness rule fails on chinese restaurant")
	}
	// Antecedent not satisfied: rule silent.
	if rule.Holds(r, r.Tuple(0), s, s.Tuple(1)) {
		t.Error("distinctness rule fires without antecedent")
	}
	// NULL e2.cuisine: Ne is false on NULL, rule must not fire (sound:
	// missing information is not evidence of distinctness).
	r2, _ := mkPair(t)
	if rule.Holds(r2, r2.Tuple(1), r2, r2.Tuple(2)) {
		t.Error("distinctness rule fires on NULL attribute")
	}
}

// TestProposition1 checks both directions of Prop. 1 on the paper's
// example ILFD I4: speciality=Mughalai → cuisine=Indian.
func TestProposition1(t *testing.T) {
	f := ilfd.MustParse("speciality=Mughalai -> cuisine=Indian")
	ds := ToDistinctness(f)
	if len(ds) != 1 {
		t.Fatalf("ToDistinctness returned %d rules", len(ds))
	}
	d := ds[0]
	// Shape: e1.speciality = Mughalai ∧ e2.cuisine ≠ Indian.
	if len(d.Preds) != 2 {
		t.Fatalf("rule predicates = %v", d.Preds)
	}
	// Round trip back to the ILFD.
	back, ok := ILFDFromDistinctness(d)
	if !ok {
		t.Fatal("ILFDFromDistinctness failed on Prop-1-shaped rule")
	}
	if !back.Equal(f) {
		t.Errorf("round trip = %v, want %v", back, f)
	}
}

// TestProposition1EmptyAntecedent pins that an unconditional fact —
// which ilfd.New admits and a persisted link spec can therefore carry —
// converts to no distinctness rule instead of panicking: a distinctness
// rule must involve attributes of both entities.
func TestProposition1EmptyAntecedent(t *testing.T) {
	f, err := ilfd.New(nil, ilfd.Conditions{{Attr: "cuisine", Val: value.String("Indian")}})
	if err != nil {
		t.Fatal(err)
	}
	if ds := ToDistinctness(f); len(ds) != 0 {
		t.Fatalf("unconditional fact yielded distinctness rules %v", ds)
	}
}

func TestProposition1MultiConsequent(t *testing.T) {
	f := ilfd.MustParse("street=FrontAve. -> county=Ramsey & state=MN")
	ds := ToDistinctness(f)
	if len(ds) != 2 {
		t.Fatalf("multi-consequent ToDistinctness returned %d rules", len(ds))
	}
	for _, d := range ds {
		back, ok := ILFDFromDistinctness(d)
		if !ok {
			t.Errorf("round trip failed for %v", d)
			continue
		}
		if !back.Antecedent.Equal(f.Antecedent) {
			t.Errorf("antecedent drifted: %v", back)
		}
	}
}

func TestILFDFromDistinctnessRejectsOtherShapes(t *testing.T) {
	// Cross-attribute rule: not Prop-1 shape.
	cross := MustNewDistinctness("cross", []Predicate{
		{Left: Attr1("a"), Op: Lt, Right: Attr2("a")},
	})
	if _, ok := ILFDFromDistinctness(cross); ok {
		t.Error("cross-attribute rule converted")
	}
	// Two inequalities: not Prop-1 shape.
	twoNe := MustNewDistinctness("twone", []Predicate{
		{Left: Attr1("a"), Op: Eq, Right: Const(value.String("1"))},
		{Left: Attr2("b"), Op: Ne, Right: Const(value.String("2"))},
		{Left: Attr2("c"), Op: Ne, Right: Const(value.String("3"))},
	})
	if _, ok := ILFDFromDistinctness(twoNe); ok {
		t.Error("double-inequality rule converted")
	}
	// Eq on e2 side: not Prop-1 shape.
	eqE2 := MustNewDistinctness("eqe2", []Predicate{
		{Left: Attr1("a"), Op: Eq, Right: Const(value.String("1"))},
		{Left: Attr2("b"), Op: Eq, Right: Const(value.String("2"))},
	})
	if _, ok := ILFDFromDistinctness(eqE2); ok {
		t.Error("e2-equality rule converted")
	}
}

// TestProposition1Semantics verifies the semantic content of Prop. 1 on
// data: for tuples drawn from an ILFD-consistent world, whenever the
// derived distinctness rule fires on a pair, the pair genuinely refers
// to different entities (here: keys differ).
func TestProposition1Semantics(t *testing.T) {
	r, s := mkPair(t)
	f := ilfd.MustParse("speciality=hunan -> cuisine=chinese")
	for _, d := range ToDistinctness(f) {
		for i := 0; i < r.Len(); i++ {
			for j := 0; j < s.Len(); j++ {
				if d.Holds(r, r.Tuple(i), s, s.Tuple(j)) {
					// Pairs the rule declares distinct must not share the
					// (name) key — in this fixture names are entity ids.
					if value.Equal(r.MustValue(i, "name"), s.MustValue(j, "name")) {
						t.Errorf("distinctness fired on same-entity pair (%d,%d)", i, j)
					}
				}
			}
		}
	}
}

func TestKeyEquivalence(t *testing.T) {
	rule, err := KeyEquivalence("key-eq", []string{"name", "cuisine"})
	if err != nil {
		t.Fatalf("KeyEquivalence: %v", err)
	}
	r, s := mkPair(t)
	if !rule.Holds(r, r.Tuple(0), s, s.Tuple(0)) {
		t.Error("key equivalence fails on matching pair")
	}
	if rule.Holds(r, r.Tuple(1), s, s.Tuple(0)) {
		t.Error("key equivalence holds on non-matching pair")
	}
	if _, err := KeyEquivalence("empty", nil); err == nil {
		t.Error("empty key accepted")
	}
}
