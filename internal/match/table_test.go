package match

import (
	"math"
	"reflect"
	"testing"

	"entityid/internal/relation"
	"entityid/internal/rules"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// TestTablePairIndex pins the lazy pair index: literal construction,
// direct appends to Pairs (the pre-index idiom metrics tests and
// examples still use), and Add all keep Contains and the postings
// consistent.
func TestTablePairIndex(t *testing.T) {
	tab := &Table{Pairs: []Pair{{RIndex: 0, SIndex: 2}, {RIndex: 1, SIndex: 0}}}
	if !tab.Contains(0, 2) || !tab.Contains(1, 0) {
		t.Fatal("literal pairs not indexed")
	}
	if tab.Contains(2, 2) {
		t.Fatal("phantom pair")
	}
	// Direct append after the index was built: must be absorbed lazily.
	tab.Pairs = append(tab.Pairs, Pair{RIndex: 2, SIndex: 2})
	if !tab.Contains(2, 2) {
		t.Fatal("appended pair not indexed")
	}
	tab.Add(Pair{RIndex: 0, SIndex: 3})
	if !tab.Contains(0, 3) || tab.Len() != 4 {
		t.Fatalf("Add not reflected: len=%d", tab.Len())
	}
	if got, want := tab.MatchesOfR(0), []int{2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("MatchesOfR(0) = %v, want %v", got, want)
	}
	if got, want := tab.MatchesOfS(2), []int{0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("MatchesOfS(2) = %v, want %v", got, want)
	}
	if got := tab.MatchesOfR(9); got != nil {
		t.Fatalf("MatchesOfR(9) = %v, want nil", got)
	}
}

// TestBlockedIdentityFloatZero pins hash-join blocking against the
// float negative-zero edge: value.Equal treats -0.0 and +0.0 as equal,
// so the probe must bucket them together exactly like the reference
// nested loop matches them.
func TestBlockedIdentityFloatZero(t *testing.T) {
	rs := schema.MustNew("R", []schema.Attribute{
		{Name: "id"}, {Name: "lat", Kind: value.KindFloat},
	}, []string{"id"})
	ss := schema.MustNew("S", []schema.Attribute{
		{Name: "id"}, {Name: "lat", Kind: value.KindFloat},
	}, []string{"id"})
	rp, sp := relation.New(rs), relation.New(ss)
	rp.MustInsert(value.String("r0"), value.Float(math.Copysign(0, -1)))
	sp.MustInsert(value.String("s0"), value.Float(0))
	rule := rules.MustNewIdentity("lat-eq", []rules.Predicate{
		{Left: rules.Attr1("lat"), Op: rules.Eq, Right: rules.Attr2("lat")},
	})
	// The ids differ, so the extended key pairs nothing: the rule's block
	// is the only way in.
	cfg := Config{
		R: rp, S: sp,
		Attrs:    []AttrMap{{Name: "id", R: "id", S: "id"}, {Name: "lat", R: "lat", S: "lat"}},
		ExtKey:   []string{"id"},
		Identity: []rules.IdentityRule{rule},
	}
	got, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Naive = true
	want, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.MT.Pairs, want.MT.Pairs) {
		t.Fatalf("blocked %v != reference %v", got.MT.Pairs, want.MT.Pairs)
	}
	if got.MT.Len() != 1 {
		t.Fatalf("pairs = %v, want the -0.0/+0.0 pair", got.MT.Pairs)
	}
}
