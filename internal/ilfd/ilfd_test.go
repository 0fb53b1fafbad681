package ilfd

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// mkRestaurants builds a small relation of restaurant entities used by
// the satisfaction tests.
func mkRestaurants(t *testing.T) *relation.Relation {
	t.Helper()
	sch := schema.MustNew("Restaurant",
		[]schema.Attribute{
			{Name: "name", Kind: value.KindString},
			{Name: "speciality", Kind: value.KindString},
			{Name: "cuisine", Kind: value.KindString},
		},
		[]string{"name"},
	)
	r := relation.New(sch)
	r.MustInsert(value.String("twincities"), value.String("hunan"), value.String("chinese"))
	r.MustInsert(value.String("anjuman"), value.String("mughalai"), value.String("indian"))
	r.MustInsert(value.String("unknown"), value.String("gyros"), value.Null)
	return r
}

func TestConditionBasics(t *testing.T) {
	c := C("cuisine", "chinese")
	if c.String() != "cuisine=chinese" {
		t.Errorf("String = %q", c.String())
	}
	d := Condition{Attr: "cuisine", Val: value.String("chinese")}
	if c.Compare(d) != 0 {
		t.Error("identical conditions are two symbols")
	}
	e := Condition{Attr: "cuisine", Val: value.Int(1)}
	if c.Compare(e) == 0 || c.Compare(e) != -e.Compare(c) {
		t.Error("different-kind conditions are one symbol, or are not ordered")
	}
}

func TestConditionHoldsIn(t *testing.T) {
	r := mkRestaurants(t)
	if !C("speciality", "hunan").HoldsIn(r, r.Tuple(0)) {
		t.Error("hunan condition does not hold")
	}
	if C("speciality", "sichuan").HoldsIn(r, r.Tuple(0)) {
		t.Error("sichuan condition holds wrongly")
	}
	// NULL satisfies nothing.
	if C("cuisine", "greek").HoldsIn(r, r.Tuple(2)) {
		t.Error("condition holds on NULL attribute")
	}
	// Unknown attribute satisfies nothing.
	if C("bogus", "x").HoldsIn(r, r.Tuple(0)) {
		t.Error("condition holds on unknown attribute")
	}
}

func TestConditionsNormalize(t *testing.T) {
	cs := Conditions{C("b", "2"), C("a", "1"), C("b", "2")}.Normalize()
	if len(cs) != 2 {
		t.Fatalf("normalized length = %d", len(cs))
	}
	if cs[0].Attr != "a" {
		t.Errorf("not sorted: %v", cs)
	}
}

func TestConditionsSetOps(t *testing.T) {
	a := Conditions{C("a", "1"), C("b", "2")}
	b := Conditions{C("b", "2")}
	if !a.ContainsAll(b) {
		t.Error("ContainsAll subset failed")
	}
	if b.ContainsAll(a) {
		t.Error("ContainsAll superset wrongly true")
	}
	u := a.Union(Conditions{C("c", "3")})
	if len(u) != 3 {
		t.Errorf("union = %v", u)
	}
	if !a.Equal(Conditions{C("b", "2"), C("a", "1")}) {
		t.Error("Equal order-sensitive")
	}
	if a.Equal(b) {
		t.Error("unequal sets Equal")
	}
	if got := (Conditions{}).String(); got != "⊤" {
		t.Errorf("empty conjunction = %q", got)
	}
	if got := a.String(); !strings.Contains(got, "∧") {
		t.Errorf("conjunction rendering = %q", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Conditions{C("a", "1")}, nil); err == nil {
		t.Error("empty consequent accepted")
	}
	f := MustNew(Conditions{C("b", "2"), C("a", "1")}, Conditions{C("c", "3")})
	if f.Antecedent[0].Attr != "a" {
		t.Error("antecedent not normalized")
	}
}

func TestILFDStringKeyEqual(t *testing.T) {
	f := MustParse("speciality=hunan -> cuisine=chinese")
	if got := f.String(); !strings.Contains(got, "→") || !strings.Contains(got, "speciality=hunan") {
		t.Errorf("String = %q", got)
	}
	g := MustParse("speciality=hunan -> cuisine=chinese")
	if !f.Equal(g) {
		t.Error("identical ILFDs not equal")
	}
	h := MustParse("speciality=hunan -> cuisine=greek")
	if f.Equal(h) {
		t.Error("different ILFDs Equal")
	}
}

func TestTrivial(t *testing.T) {
	if !MustParse("a=1 & b=2 -> a=1").Trivial() {
		t.Error("reflexive ILFD not trivial")
	}
	if MustParse("a=1 -> b=2").Trivial() {
		t.Error("non-reflexive ILFD trivial")
	}
}

func TestAttrs(t *testing.T) {
	f := MustParse("b=2 & a=1 -> c=3")
	got := f.Attrs()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Attrs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Attrs = %v, want %v", got, want)
		}
	}
}

func TestSatisfiedByAndContradicts(t *testing.T) {
	r := mkRestaurants(t)
	hunanChinese := MustParse("speciality=hunan -> cuisine=chinese")
	hunanGreek := MustParse("speciality=hunan -> cuisine=greek")
	gyrosGreek := MustParse("speciality=gyros -> cuisine=greek")

	if !hunanChinese.SatisfiedBy(r, r.Tuple(0)) {
		t.Error("satisfied ILFD reported unsatisfied")
	}
	if hunanGreek.SatisfiedBy(r, r.Tuple(0)) {
		t.Error("violated ILFD reported satisfied")
	}
	if !hunanGreek.Contradicts(r, r.Tuple(0)) {
		t.Error("contradiction not detected")
	}
	// Antecedent does not hold => satisfied vacuously.
	if !hunanGreek.SatisfiedBy(r, r.Tuple(1)) {
		t.Error("vacuous satisfaction failed")
	}
	// Tuple 2: antecedent holds (gyros) but cuisine is NULL: not
	// satisfied (missing info) yet not a contradiction.
	if gyrosGreek.SatisfiedBy(r, r.Tuple(2)) {
		t.Error("NULL consequent counted as satisfied")
	}
	if gyrosGreek.Contradicts(r, r.Tuple(2)) {
		t.Error("NULL consequent counted as contradiction")
	}
}

func TestSetViolationsAndContradictions(t *testing.T) {
	r := mkRestaurants(t)
	fs := Set{
		MustParse("speciality=hunan -> cuisine=chinese"),
		MustParse("speciality=gyros -> cuisine=greek"),
	}
	if fs.SatisfiedBy(r) {
		t.Error("set satisfied despite NULL-consequent tuple")
	}
	vs := fs.Violations(r)
	if len(vs) != 1 || vs[0].Index != 2 {
		t.Errorf("Violations = %+v", vs)
	}
	if got := fs.Contradictions(r); len(got) != 0 {
		t.Errorf("Contradictions = %+v", got)
	}
	// Make tuple 0 contradict.
	bad := Set{MustParse("speciality=hunan -> cuisine=greek")}
	if got := bad.Contradictions(r); len(got) != 1 || got[0].Index != 0 {
		t.Errorf("Contradictions = %+v", got)
	}
}

func TestDedupAndCombine(t *testing.T) {
	fs := Set{
		MustParse("a=1 -> b=2"),
		MustParse("a=1 -> b=2"),
		MustParse("a=1 -> c=3"),
		MustParse("x=9 -> y=8"),
	}
	if got := fs.Dedup(); len(got) != 3 {
		t.Errorf("Dedup len = %d", len(got))
	}
	combined := fs.CombineByAntecedent()
	if len(combined) != 2 {
		t.Fatalf("CombineByAntecedent len = %d: %v", len(combined), combined)
	}
	want := MustParse("a=1 -> b=2 & c=3")
	if !combined[0].Equal(want) {
		t.Errorf("combined[0] = %v, want %v", combined[0], want)
	}
}

// --- Armstrong's axioms (§5.2) ---

func TestReflexivity(t *testing.T) {
	x := Conditions{C("a", "1"), C("b", "2")}
	f, err := Reflexivity(x, Conditions{C("a", "1")})
	if err != nil {
		t.Fatalf("Reflexivity: %v", err)
	}
	if !f.Trivial() {
		t.Error("reflexivity produced non-trivial ILFD")
	}
	if _, err := Reflexivity(x, Conditions{C("z", "0")}); err == nil {
		t.Error("reflexivity on non-subset accepted")
	}
}

func TestAugmentation(t *testing.T) {
	f := MustParse("a=1 -> b=2")
	g := Augmentation(f, Conditions{C("z", "9")})
	want := MustParse("a=1 & z=9 -> b=2 & z=9")
	if !g.Equal(want) {
		t.Errorf("Augmentation = %v, want %v", g, want)
	}
}

func TestTransitivity(t *testing.T) {
	xy := MustParse("a=1 -> b=2")
	yz := MustParse("b=2 -> c=3")
	g, err := Transitivity(xy, yz)
	if err != nil {
		t.Fatalf("Transitivity: %v", err)
	}
	if !g.Equal(MustParse("a=1 -> c=3")) {
		t.Errorf("Transitivity = %v", g)
	}
	if _, err := Transitivity(xy, MustParse("q=7 -> c=3")); err == nil {
		t.Error("mismatched transitivity accepted")
	}
}

func TestUnionRule(t *testing.T) {
	g, err := UnionRule(MustParse("a=1 -> b=2"), MustParse("a=1 -> c=3"))
	if err != nil {
		t.Fatalf("UnionRule: %v", err)
	}
	if !g.Equal(MustParse("a=1 -> b=2 & c=3")) {
		t.Errorf("UnionRule = %v", g)
	}
	if _, err := UnionRule(MustParse("a=1 -> b=2"), MustParse("z=0 -> c=3")); err == nil {
		t.Error("mismatched union accepted")
	}
}

func TestPseudoTransitivity(t *testing.T) {
	xy := MustParse("a=1 -> b=2")
	w := Conditions{C("w", "5")}
	wyz := MustParse("w=5 & b=2 -> c=3")
	g, err := PseudoTransitivity(xy, w, wyz)
	if err != nil {
		t.Fatalf("PseudoTransitivity: %v", err)
	}
	if !g.Equal(MustParse("w=5 & a=1 -> c=3")) {
		t.Errorf("PseudoTransitivity = %v", g)
	}
	if _, err := PseudoTransitivity(xy, w, MustParse("q=0 -> c=3")); err == nil {
		t.Error("mismatched pseudotransitivity accepted")
	}
}

func TestDecomposition(t *testing.T) {
	f := MustParse("a=1 -> b=2 & c=3")
	g, err := Decomposition(f, Conditions{C("c", "3")})
	if err != nil {
		t.Fatalf("Decomposition: %v", err)
	}
	if !g.Equal(MustParse("a=1 -> c=3")) {
		t.Errorf("Decomposition = %v", g)
	}
	if _, err := Decomposition(f, Conditions{C("z", "0")}); err == nil {
		t.Error("decomposition outside consequent accepted")
	}
}

// --- Closure and inference (§5.2, Theorem 1) ---

func paperF() Set {
	// F = {(A=a1)→(B=b1), (B=b1)→(C=c1)}, the §5.2 example.
	return Set{
		MustParse("A=a1 -> B=b1"),
		MustParse("B=b1 -> C=c1"),
	}
}

func TestClosurePaperExample(t *testing.T) {
	got := Closure(Conditions{C("A", "a1")}, paperF())
	want := Conditions{C("A", "a1"), C("B", "b1"), C("C", "c1")}
	if !got.Equal(want) {
		t.Errorf("Closure = %v, want %v", got, want)
	}
	// Closure of B alone must not pull in A.
	got = Closure(Conditions{C("B", "b1")}, paperF())
	if got.Contains(C("A", "a1")) {
		t.Errorf("Closure(B) contains A: %v", got)
	}
}

func TestClosureIdempotent(t *testing.T) {
	fs := paperF()
	x := Conditions{C("A", "a1")}
	once := Closure(x, fs)
	twice := Closure(once, fs)
	if !once.Equal(twice) {
		t.Errorf("closure not idempotent: %v vs %v", once, twice)
	}
}

func TestClosureMonotone(t *testing.T) {
	fs := paperF()
	small := Closure(Conditions{C("B", "b1")}, fs)
	big := Closure(Conditions{C("B", "b1"), C("A", "a1")}, fs)
	if !big.ContainsAll(small) {
		t.Errorf("closure not monotone: %v ⊄ %v", small, big)
	}
}

func TestInfers(t *testing.T) {
	fs := paperF()
	// Transitivity consequence.
	if !Infers(fs, MustParse("A=a1 -> C=c1")) {
		t.Error("F does not infer A→C")
	}
	// Trivial consequence.
	if !Infers(fs, MustParse("A=a1 -> A=a1")) {
		t.Error("F does not infer trivial A→A")
	}
	// Non-consequence.
	if Infers(fs, MustParse("C=c1 -> A=a1")) {
		t.Error("F infers converse C→A")
	}
	if Infers(fs, MustParse("A=a2 -> B=b1")) {
		t.Error("F infers for wrong antecedent value")
	}
}

// TestAxiomSoundnessRandomized is the Lemma 1 property check: any ILFD
// produced from F by the axioms is satisfied by every tuple (over
// non-NULL attributes) that satisfies F.
func TestAxiomSoundnessRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	attrs := []string{"a", "b", "c", "d"}
	vals := []string{"0", "1", "2"}

	randCond := func() Condition {
		return C(attrs[rng.Intn(len(attrs))], vals[rng.Intn(len(vals))])
	}
	randConds := func(n int) Conditions {
		cs := make(Conditions, 0, n)
		for i := 0; i < n; i++ {
			cs = append(cs, randCond())
		}
		return cs.Normalize()
	}

	sch := schema.MustNew("T", []schema.Attribute{
		{Name: "a", Kind: value.KindString},
		{Name: "b", Kind: value.KindString},
		{Name: "c", Kind: value.KindString},
		{Name: "d", Kind: value.KindString},
		{Name: "id", Kind: value.KindInt},
	}, []string{"id"})

	for trial := 0; trial < 200; trial++ {
		// Random ILFD set.
		var fs Set
		for i := 0; i < 1+rng.Intn(4); i++ {
			ante := randConds(1 + rng.Intn(2))
			cons := randConds(1)
			fs = append(fs, MustNew(ante, cons))
		}
		// Random relation of tuples that satisfy fs (rejection sampling).
		r := relation.New(sch)
		id := int64(0)
		for len(r.Tuples()) < 5 {
			tup := relation.Tuple{
				value.String(vals[rng.Intn(len(vals))]),
				value.String(vals[rng.Intn(len(vals))]),
				value.String(vals[rng.Intn(len(vals))]),
				value.String(vals[rng.Intn(len(vals))]),
				value.Int(id),
			}
			ok := true
			for _, f := range fs {
				if !f.SatisfiedBy(r, tup) {
					ok = false
					break
				}
			}
			id++
			if id > 2000 {
				break // unsatisfiable combination; skip
			}
			if !ok {
				continue
			}
			if err := r.Insert(tup); err != nil {
				t.Fatal(err)
			}
		}
		if r.Len() == 0 {
			continue
		}
		// Derive consequences three ways and verify satisfaction.
		var derived Set
		for _, f := range fs {
			derived = append(derived, Augmentation(f, randConds(1)))
		}
		for _, f := range fs {
			for _, g := range fs {
				if h, err := Transitivity(f, g); err == nil {
					derived = append(derived, h)
				}
				if h, err := UnionRule(f, g); err == nil {
					derived = append(derived, h)
				}
			}
		}
		// Everything Infers says follows must hold in r.
		for _, f := range derived {
			if !Infers(fs, f) {
				t.Fatalf("axiom-derived ILFD %v not inferred from %v", f, fs)
			}
			for i, tup := range r.Tuples() {
				if !f.SatisfiedBy(r, tup) {
					t.Fatalf("trial %d: derived ILFD %v violated by satisfying tuple %d of\nF = %v",
						trial, f, i, fs)
				}
			}
		}
	}
}

// TestClosureCompletenessWitness is the Theorem 1 completeness argument
// made executable: when Y ⊄ X⁺_F (for a functionally consistent F), the
// witness tuple that realizes exactly X⁺_F satisfies F but violates
// X → Y, so X → Y is genuinely not a consequence.
func TestClosureCompletenessWitness(t *testing.T) {
	fs := Set{
		MustParse("a=1 -> b=2"),
		MustParse("b=2 & c=3 -> d=4"),
	}
	x := Conditions{C("a", "1")}
	y := Conditions{C("d", "4")}
	clo := Closure(x, fs)
	if clo.ContainsAll(y) {
		t.Fatal("test premise broken: Y in closure")
	}
	// Build the witness: attributes named in closure get their closure
	// value; every other attribute gets the fresh value "⊥".
	sch := schema.MustNew("W", []schema.Attribute{
		{Name: "a", Kind: value.KindString},
		{Name: "b", Kind: value.KindString},
		{Name: "c", Kind: value.KindString},
		{Name: "d", Kind: value.KindString},
	})
	vals := map[string]value.Value{}
	for _, c := range clo {
		vals[c.Attr] = c.Val
	}
	tup := make(relation.Tuple, sch.Arity())
	for i, a := range sch.AttrNames() {
		if v, ok := vals[a]; ok {
			tup[i] = v
		} else {
			tup[i] = value.String("⊥")
		}
	}
	r := relation.New(sch)
	if err := r.Insert(tup); err != nil {
		t.Fatal(err)
	}
	// The witness satisfies F…
	if !fs.SatisfiedBy(r) {
		t.Fatalf("witness violates F; closure = %v", clo)
	}
	// …but violates X → Y.
	xy := MustNew(x, y)
	if xy.SatisfiedBy(r, r.Tuple(0)) {
		t.Error("witness satisfies X→Y; completeness argument broken")
	}
}

// TestEnumerateClosurePaperExample reproduces the §5.2 F⁺ listing:
// with F = {(A=a1)→(B=b1), (B=b1)→(C=c1)} and P, Q, R denoting the
// three symbols, F⁺ contains P→P, Q→Q, R→R, (P∧Q)→P, …, P→(Q∧R), and
// never R→P.
func TestEnumerateClosurePaperExample(t *testing.T) {
	fs := paperF()
	p, q, r := C("A", "a1"), C("B", "b1"), C("C", "c1")
	universe := Conditions{p, q, r}
	fplus, err := EnumerateClosure(fs, universe)
	if err != nil {
		t.Fatalf("EnumerateClosure: %v", err)
	}
	contains := func(f ILFD) bool {
		for _, g := range fplus {
			if g.Equal(f) {
				return true
			}
		}
		return false
	}
	// Members from the paper's listing.
	for _, f := range []ILFD{
		MustNew(Conditions{p}, Conditions{p}),
		MustNew(Conditions{q}, Conditions{q}),
		MustNew(Conditions{r}, Conditions{r}),
		MustNew(Conditions{p, q}, Conditions{p}),
		MustNew(Conditions{p, q}, Conditions{q}),
		MustNew(Conditions{p, r}, Conditions{p}),
		MustNew(Conditions{q, r}, Conditions{q}),
		MustNew(Conditions{p, q, r}, Conditions{p}),
		// Derived, not just reflexive:
		MustNew(Conditions{p}, Conditions{q, r}),
		MustNew(Conditions{q}, Conditions{r}),
	} {
		if !contains(f) {
			t.Errorf("F+ missing %v", f)
		}
	}
	// Non-members.
	for _, f := range []ILFD{
		MustNew(Conditions{r}, Conditions{p}),
		MustNew(Conditions{q}, Conditions{p}),
		MustNew(Conditions{r}, Conditions{q}),
	} {
		if contains(f) {
			t.Errorf("F+ wrongly contains %v", f)
		}
	}
	// Every member is genuinely inferred.
	for _, f := range fplus {
		if !Infers(fs, f) {
			t.Errorf("F+ member %v not inferred", f)
		}
	}
	// Size sanity: for each of the 7 non-empty X, consequent subsets of
	// X⁺∩universe: P derives all 3 (7 subsets), Q derives {Q,R} (3),
	// R derives {R} (1), and supersets accordingly.
	if len(fplus) < 7*1 || len(fplus) > 7*7 {
		t.Errorf("F+ size = %d out of plausible range", len(fplus))
	}
}

func TestEnumerateClosureTooLarge(t *testing.T) {
	var universe Conditions
	for i := 0; i < 13; i++ {
		universe = append(universe, C(fmt.Sprintf("a%d", i), "1"))
	}
	if _, err := EnumerateClosure(nil, universe); err == nil {
		t.Error("oversized universe accepted")
	}
}

// --- Minimal cover and equivalence ---

func TestRedundant(t *testing.T) {
	fs := Set{
		MustParse("a=1 -> b=2"),
		MustParse("b=2 -> c=3"),
		MustParse("a=1 -> c=3"), // implied by the first two
	}
	if !Redundant(fs, 2) {
		t.Error("transitively implied ILFD not redundant")
	}
	if Redundant(fs, 0) {
		t.Error("essential ILFD reported redundant")
	}
}

func TestMinimalCover(t *testing.T) {
	fs := Set{
		MustParse("a=1 -> b=2 & c=3"),
		MustParse("b=2 -> c=3"),
		MustParse("a=1 -> c=3"),       // redundant
		MustParse("a=1 & z=9 -> b=2"), // antecedent reducible (a=1 suffices)
		MustParse("q=5 -> q=5"),       // trivial
	}
	cover := MinimalCover(fs)
	if !Equivalent(cover, fs) {
		t.Fatalf("cover %v not equivalent to original %v", cover, fs)
	}
	for i := range cover {
		if Redundant(cover, i) {
			t.Errorf("cover member %v is redundant", cover[i])
		}
		if cover[i].Trivial() {
			t.Errorf("cover contains trivial ILFD %v", cover[i])
		}
		if len(cover[i].Consequent) != 1 {
			t.Errorf("cover member %v not single-consequent", cover[i])
		}
	}
	// Antecedent reduction happened: no member should mention z.
	for _, f := range cover {
		for _, a := range f.Attrs() {
			if a == "z" {
				t.Errorf("cover member %v kept reducible antecedent symbol z", f)
			}
		}
	}
}

func TestEquivalent(t *testing.T) {
	a := Set{MustParse("a=1 -> b=2"), MustParse("b=2 -> c=3")}
	b := Set{MustParse("a=1 -> b=2"), MustParse("b=2 -> c=3"), MustParse("a=1 -> c=3")}
	if !Equivalent(a, b) {
		t.Error("equivalent sets reported different")
	}
	c := Set{MustParse("a=1 -> b=2")}
	if Equivalent(a, c) {
		t.Error("weaker set reported equivalent")
	}
}

// TestJoinedKeyCollision: (a="x\x1cc\x1es:y") → (b=1) and
// (a=x) ∧ (c=y) → (b=1) are two ILFDs — one condition holding a value
// with separator bytes in it, and two conditions — that a string joining
// each condition's attribute and value, and the conditions, spelled the
// same. Set operations compare symbols instead, so neither hides the
// other: Dedup keeps both, the minimal cover implies both, and combining
// by antecedent keeps apart an antecedent whose rendering another's
// value imitates.
func TestJoinedKeyCollision(t *testing.T) {
	one := func(ante Conditions) ILFD { return MustNew(ante, Conditions{C("b", "1")}) }
	fs := Set{
		one(Conditions{C("a", "x\x1cc\x1es:y")}),
		one(Conditions{C("a", "x"), C("c", "y")}),
	}
	if fs[0].Equal(fs[1]) {
		t.Fatal("the two ILFDs are Equal")
	}
	if got := fs.Dedup(); len(got) != 2 {
		t.Errorf("Dedup kept %v, want both", got)
	}
	cover := MinimalCover(fs)
	if !Equivalent(cover, fs) {
		t.Errorf("MinimalCover = %v, not equivalent to %v", cover, fs)
	}
	for _, f := range fs {
		if !Infers(cover, f) {
			t.Errorf("%v does not follow from the cover %v", f, cover)
		}
	}
	imitation := Set{
		MustNew(Conditions{C("a", "x) ∧ (c=y")}, Conditions{C("b", "1")}),
		MustNew(Conditions{C("a", "x"), C("c", "y")}, Conditions{C("d", "2")}),
	}
	if imitation[0].Antecedent.String() != imitation[1].Antecedent.String() {
		t.Fatal("test premise broken: the antecedents no longer render alike")
	}
	if got := imitation.CombineByAntecedent(); len(got) != 2 {
		t.Errorf("CombineByAntecedent = %v, want the two ILFDs apart", got)
	}
}

// TestSetOpsAgreeWithIdentical is the property behind the collision test:
// over attributes and values holding the bytes a joined key would have
// separated with, Normalize and Dedup agree with the definition — two
// conditions are one symbol exactly when their attributes are equal and
// their values Identical, two ILFDs one exactly when their antecedents
// and consequents are one set of symbols each.
func TestSetOpsAgreeWithIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	attrs := []string{"a", "c", "a\x1es:a"}
	vals := []value.Value{
		value.String(""), value.String("\x1c"), value.String("\x1d"), value.String("\x1e"),
		value.String("s:"), value.String("a\x1es:b"), value.String("b"), value.String("x"),
		value.String("y"), value.String("x\x1cc\x1es:y"), value.Int(1), value.String("1"),
	}
	same := func(a, b Condition) bool { return a.Attr == b.Attr && value.Identical(a.Val, b.Val) }
	in := func(cs Conditions, c Condition) bool {
		return slices.ContainsFunc(cs, func(x Condition) bool { return same(x, c) })
	}
	sameSet := func(a, b Conditions) bool {
		for _, c := range a {
			if !in(b, c) {
				return false
			}
		}
		for _, c := range b {
			if !in(a, c) {
				return false
			}
		}
		return true
	}
	conds := func(n int) Conditions {
		cs := make(Conditions, n)
		for i := range cs {
			cs[i] = Condition{Attr: attrs[rng.Intn(len(attrs))], Val: vals[rng.Intn(len(vals))]}
		}
		return cs
	}
	for trial := 0; trial < 2000; trial++ {
		raw := conds(1 + rng.Intn(5))
		norm := append(Conditions(nil), raw...).Normalize()
		for i, c := range norm {
			for _, d := range norm[i+1:] {
				if same(c, d) || c.Compare(d) >= 0 {
					t.Fatalf("Normalize(%q) = %q: %q and %q out of order or one symbol twice", raw, norm, c, d)
				}
			}
		}
		if !sameSet(raw, norm) {
			t.Fatalf("Normalize(%q) = %q: not the same set", raw, norm)
		}
		var fs Set
		for range 1 + rng.Intn(6) {
			fs = append(fs, ILFD{Antecedent: conds(1 + rng.Intn(2)), Consequent: conds(1)})
		}
		equal := func(f, g ILFD) bool {
			return sameSet(f.Antecedent, g.Antecedent) && sameSet(f.Consequent, g.Consequent)
		}
		var want Set
		for _, f := range fs {
			if !slices.ContainsFunc(want, func(g ILFD) bool { return equal(f, g) }) {
				want = append(want, f)
			}
		}
		got := fs.Dedup()
		if len(got) != len(want) {
			t.Fatalf("Dedup(%q) kept %d, want %d: %q", fs, len(got), len(want), want)
		}
		for i := range got {
			if !equal(got[i], want[i]) || got[i].Equal(want[i]) != equal(got[i], want[i]) {
				t.Fatalf("Dedup(%q)[%d] = %q, want %q", fs, i, got[i], want[i])
			}
			for j := range got {
				if i != j && got[i].Equal(got[j]) {
					t.Fatalf("Dedup(%q) kept %q twice", fs, got[i])
				}
			}
		}
	}
}

// TestClosureDepth8Chain: a chain of eight ILFDs, a0 → a1 → … → a8, hidden
// among rules that never fire, closes a0 over all nine symbols however
// many of those there are.
func TestClosureDepth8Chain(t *testing.T) {
	for _, size := range []int{16, 128, 1024} {
		var fs Set
		for i := 0; i < 8; i++ {
			fs = append(fs, MustNew(Conditions{C(fmt.Sprintf("a%d", i), "1")}, Conditions{C(fmt.Sprintf("a%d", i+1), "1")}))
		}
		for i := len(fs); i < size; i++ {
			fs = append(fs, MustNew(Conditions{C(fmt.Sprintf("p%d", i), "x")}, Conditions{C(fmt.Sprintf("q%d", i), "y")}))
		}
		clo := Closure(Conditions{C("a0", "1")}, fs)
		if len(clo) != 9 {
			t.Errorf("|F| = %d: closure %v, want a0..a8", size, clo)
		}
		for i := 0; i <= 8; i++ {
			if !clo.Contains(C(fmt.Sprintf("a%d", i), "1")) {
				t.Errorf("|F| = %d: closure lacks a%d", size, i)
			}
		}
	}
}
