package baselines

import (
	"slices"
	"strings"
	"testing"

	"entityid/internal/paperdata"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

func s(v string) value.Value { return value.String(v) }

// TestKeyEquivalenceInapplicableExample1 reproduces the paper's core
// argument against approach 1: Table 1's R and S share no candidate
// key, so key equivalence refuses to run.
func TestKeyEquivalenceInapplicableExample1(t *testing.T) {
	r, sRel := paperdata.Table1R(), paperdata.Table1S()
	m := KeyEquivalence{Key: []AttrPair{{R: "name", S: "name"}}}
	_, err := m.Match(r, sRel)
	if err == nil || !strings.Contains(err.Error(), "inapplicable") {
		t.Fatalf("Match = %v, want inapplicable error", err)
	}
}

// TestKeyEquivalenceAmbiguityExample1 forces the common-attribute match
// the paper warns about: with AllowNonKey, matching Table 1 on name
// works until the paper's VillageWok/Penn.Ave. insertion makes one S
// tuple match two R tuples.
func TestKeyEquivalenceAmbiguityExample1(t *testing.T) {
	r, sRel := paperdata.Table1R(), paperdata.Table1S()
	m := KeyEquivalence{Key: []AttrPair{{R: "name", S: "name"}}, AllowNonKey: true}
	mt, err := m.Match(r, sRel)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if mt.Len() != 2 { // VillageWok and OldCountry share names
		t.Fatalf("pairs = %d, want 2", mt.Len())
	}
	// The paper's insertion.
	if err := r.Insert(relation.Tuple{s("VillageWok"), s("Penn.Ave."), s("Chinese")}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	mt, err = m.Match(r, sRel)
	if err != nil {
		t.Fatalf("Match after insert: %v", err)
	}
	if got := len(mt.MatchesOfS(nil, 0)); got != 2 {
		t.Errorf("S tuple 0 matched %d times, want the ambiguous 2", got)
	}
}

func TestKeyEquivalenceHappyPath(t *testing.T) {
	// Figure 2 relations share candidate key (name).
	r, sRel := paperdata.Figure2R(), paperdata.Figure2S()
	m := KeyEquivalence{Key: []AttrPair{{R: "name", S: "name"}}}
	mt, err := m.Match(r, sRel)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if mt.Len() != 1 {
		t.Errorf("pairs = %d", mt.Len())
	}
}

func TestKeyEquivalenceValidation(t *testing.T) {
	r, sRel := paperdata.Figure2R(), paperdata.Figure2S()
	if _, err := (KeyEquivalence{}).Match(r, sRel); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := (KeyEquivalence{Key: []AttrPair{{R: "zzz", S: "name"}}}).Match(r, sRel); err == nil {
		t.Error("unknown R attribute accepted")
	}
	if _, err := (KeyEquivalence{Key: []AttrPair{{R: "name", S: "zzz"}}}).Match(r, sRel); err == nil {
		t.Error("unknown S attribute accepted")
	}
}

func TestSubfields(t *testing.T) {
	got := Subfields(s("Village Wok. Lake-Street"))
	want := []string{"village", "wok", "lake", "street"}
	if len(got) != len(want) {
		t.Fatalf("Subfields = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Subfields = %v, want %v", got, want)
		}
	}
	if Subfields(value.Null) != nil {
		t.Error("NULL has subfields")
	}
}

func TestProbabilisticKey(t *testing.T) {
	rSch := schema.MustNew("R", []schema.Attribute{{Name: "name", Kind: value.KindString}}, []string{"name"})
	sSch := schema.MustNew("S", []schema.Attribute{{Name: "name", Kind: value.KindString}}, []string{"name"})
	r := relation.New(rSch)
	r.MustInsert(s("village wok minneapolis"))
	r.MustInsert(s("old country buffet"))
	sRel := relation.New(sSch)
	sRel.MustInsert(s("village wok mpls"))       // 2/3 subfields match
	sRel.MustInsert(s("totally different name")) // no match

	m := ProbabilisticKey{Key: []AttrPair{{R: "name", S: "name"}}, Threshold: 0.6}
	mt, err := m.Match(r, sRel)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if mt.Len() != 1 || !mt.Contains(0, 0) {
		t.Errorf("pairs = %v, want [(0,0)]", slices.Collect(mt.All()))
	}
	// Raising the threshold kills the partial match.
	m.Threshold = 0.9
	mt, err = m.Match(r, sRel)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Len() != 0 {
		t.Errorf("pairs = %v at threshold 0.9", slices.Collect(mt.All()))
	}
	if _, err := (ProbabilisticKey{Key: []AttrPair{{R: "name", S: "name"}}, Threshold: 2}).Match(r, sRel); err == nil {
		t.Error("bad threshold accepted")
	}
}

// TestProbabilisticKeyErroneousMatch demonstrates the paper's caveat:
// subfield matching "may admit erroneous matching" — two different
// restaurants sharing most name tokens get matched.
func TestProbabilisticKeyErroneousMatch(t *testing.T) {
	rSch := schema.MustNew("R", []schema.Attribute{{Name: "name", Kind: value.KindString}}, []string{"name"})
	sSch := schema.MustNew("S", []schema.Attribute{{Name: "name", Kind: value.KindString}}, []string{"name"})
	r := relation.New(rSch)
	r.MustInsert(s("golden dragon st paul"))
	sRel := relation.New(sSch)
	sRel.MustInsert(s("golden dragon minneapolis")) // different entity!

	m := ProbabilisticKey{Key: []AttrPair{{R: "name", S: "name"}}, Threshold: 0.5}
	mt, err := m.Match(r, sRel)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Len() != 1 {
		t.Error("expected the (unsound) probabilistic match to fire")
	}
}

func TestProbabilisticAttr(t *testing.T) {
	r, sRel := paperdata.Figure2R(), paperdata.Figure2S()
	m := ProbabilisticAttr{Common: []AttrPair{
		{R: "name", S: "name"}, {R: "cuisine", S: "cuisine"},
	}}
	mt, err := m.Match(r, sRel)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	// Figure 2: the comparison value is 1.0 — and the match is wrong.
	// The baseline cannot know that; the test pins the unsound behaviour
	// the paper uses to motivate sound techniques.
	if mt.Len() != 1 {
		t.Errorf("pairs = %d, want the (unsound) 1", mt.Len())
	}
}

func TestProbabilisticAttrThresholdAndWeights(t *testing.T) {
	rSch := schema.MustNew("R", []schema.Attribute{
		{Name: "name", Kind: value.KindString},
		{Name: "city", Kind: value.KindString},
	}, []string{"name"})
	sSch := schema.MustNew("S", []schema.Attribute{
		{Name: "name", Kind: value.KindString},
		{Name: "city", Kind: value.KindString},
	}, []string{"name"})
	r := relation.New(rSch)
	r.MustInsert(s("wok"), s("mpls"))
	sRel := relation.New(sSch)
	sRel.MustInsert(s("wok"), s("stpaul"))

	common := []AttrPair{{R: "name", S: "name"}, {R: "city", S: "city"}}
	// Unweighted, threshold 1.0: city disagrees -> no match.
	mt, err := ProbabilisticAttr{Common: common}.Match(r, sRel)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Len() != 0 {
		t.Errorf("pairs = %d at threshold 1.0", mt.Len())
	}
	// Threshold 0.5 admits the half-agreement.
	mt, err = ProbabilisticAttr{Common: common, Threshold: 0.5}.Match(r, sRel)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Len() != 1 {
		t.Errorf("pairs = %d at threshold 0.5", mt.Len())
	}
	// Heavy name weight pushes the comparison value up.
	mt, err = ProbabilisticAttr{Common: common, Weights: []float64{9, 1}, Threshold: 0.9}.Match(r, sRel)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Len() != 1 {
		t.Errorf("pairs = %d with weights", mt.Len())
	}
	// Weight arity check.
	if _, err := (ProbabilisticAttr{Common: common, Weights: []float64{1}}).Match(r, sRel); err == nil {
		t.Error("wrong weight count accepted")
	}
	if _, err := (ProbabilisticAttr{Common: common, Threshold: -1}).Match(r, sRel); err == nil {
		t.Error("bad threshold accepted")
	}
}

func TestProbabilisticAttrGreedyOneToOne(t *testing.T) {
	rSch := schema.MustNew("R", []schema.Attribute{{Name: "name", Kind: value.KindString}, {Name: "id", Kind: value.KindInt}}, []string{"id"})
	sSch := schema.MustNew("S", []schema.Attribute{{Name: "name", Kind: value.KindString}, {Name: "id", Kind: value.KindInt}}, []string{"id"})
	r := relation.New(rSch)
	r.MustInsert(s("wok"), value.Int(1))
	r.MustInsert(s("wok"), value.Int(2))
	sRel := relation.New(sSch)
	sRel.MustInsert(s("wok"), value.Int(10))

	mt, err := ProbabilisticAttr{Common: []AttrPair{{R: "name", S: "name"}}}.Match(r, sRel)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Len() != 1 {
		t.Errorf("greedy assignment produced %d pairs, want 1", mt.Len())
	}
}

func TestProbabilisticAttrAllNullIncomparable(t *testing.T) {
	rSch := schema.MustNew("R", []schema.Attribute{{Name: "a", Kind: value.KindString}, {Name: "k", Kind: value.KindInt}}, []string{"k"})
	sSch := schema.MustNew("S", []schema.Attribute{{Name: "a", Kind: value.KindString}, {Name: "k", Kind: value.KindInt}}, []string{"k"})
	r := relation.New(rSch)
	r.MustInsert(value.Null, value.Int(1))
	sRel := relation.New(sSch)
	sRel.MustInsert(value.Null, value.Int(2))
	mt, err := ProbabilisticAttr{Common: []AttrPair{{R: "a", S: "a"}}}.Match(r, sRel)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Len() != 0 {
		t.Error("incomparable pair matched")
	}
}
