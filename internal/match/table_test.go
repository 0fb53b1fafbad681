package match

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"entityid/internal/relation"
	"entityid/internal/rules"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// TestTablePairIndex pins the partner arrays: Add keeps Contains and
// MatchesOfR/S current, a sound table answers MatchesOf* from its arrays
// without allocating, and a pair that breaks uniqueness is still logged,
// contained and listed — by both its tuples — while the table reports
// it.
func TestTablePairIndex(t *testing.T) {
	tab := NewTable(nil, nil, Pair{RIndex: 0, SIndex: 2}, Pair{RIndex: 1, SIndex: 0})
	if !tab.Contains(0, 2) || !tab.Contains(1, 0) {
		t.Fatal("constructed pairs not indexed")
	}
	if tab.Contains(2, 2) || tab.Contains(-1, 0) || tab.Contains(9, 9) {
		t.Fatal("phantom pair")
	}
	var buf [1]int
	if allocs := testing.AllocsPerRun(100, func() { tab.MatchesOfR(buf[:0], 0) }); allocs != 0 {
		t.Fatalf("MatchesOfR on a sound table allocates %.0f times", allocs)
	}
	if got := tab.MatchesOfR(buf[:0], 0); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("MatchesOfR(0) = %v, want [2]", got)
	}
	tab.Add(Pair{RIndex: 2, SIndex: 2})
	tab.Add(Pair{RIndex: 0, SIndex: 3})
	if !tab.Contains(2, 2) || !tab.Contains(0, 3) || tab.Len() != 4 {
		t.Fatalf("Add not reflected: len=%d", tab.Len())
	}
	if got, want := tab.MatchesOfR(nil, 0), []int{2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("MatchesOfR(0) = %v, want %v", got, want)
	}
	if got, want := tab.MatchesOfS(nil, 2), []int{0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("MatchesOfS(2) = %v, want %v", got, want)
	}
	if got := tab.MatchesOfR(nil, 9); got != nil {
		t.Fatalf("MatchesOfR(9) = %v, want nil", got)
	}
	if err := tab.Uniqueness(); err == nil || err.Error() != "match: uniqueness violation: S tuple 2 matches R tuples 0 and 2" {
		t.Fatalf("Uniqueness = %v", err)
	}
}

// naiveTable is the matching table as a plain slice, every question a
// linear scan — and naiveUniqueness the uniqueness half of Verify as it
// was written before Table checked it at Add.
type naiveTable []Pair

func (n naiveTable) contains(i, j int) bool { return slices.Contains(n, Pair{RIndex: i, SIndex: j}) }

func (n naiveTable) matchesOf(x int, left bool) []int {
	var out []int
	for _, p := range n {
		if left && p.RIndex == x {
			out = append(out, p.SIndex)
		} else if !left && p.SIndex == x {
			out = append(out, p.RIndex)
		}
	}
	return out
}

func (n naiveTable) uniqueness() string {
	seenR, seenS := map[int]int{}, map[int]int{}
	for _, p := range n {
		if j, dup := seenR[p.RIndex]; dup {
			return fmt.Errorf("match: %w: R tuple %d matches S tuples %d and %d", ErrUniqueness, p.RIndex, j, p.SIndex).Error()
		}
		seenR[p.RIndex] = p.SIndex
		if i, dup := seenS[p.SIndex]; dup {
			return fmt.Errorf("match: %w: S tuple %d matches R tuples %d and %d", ErrUniqueness, p.SIndex, i, p.RIndex).Error()
		}
		seenS[p.SIndex] = p.RIndex
	}
	return ""
}

// TestTableMatchesNaiveSlice holds Table, pair by pair as it is added,
// to the plain slice on seeded random sequences — sound ones, and sound
// ones with an R position reused, an S position reused or a pair
// repeated exactly, at a random place: membership, each tuple's
// partners, the log in order, and the uniqueness violation Verify
// reports, word for word. A sound table also reorders into any
// permutation of its pairs and refuses a doctored one, unchanged.
func TestTableMatchesNaiveSlice(t *testing.T) {
	const side = 12
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rs, ss := rng.Perm(side), rng.Perm(side)
		var seq naiveTable
		for k := range rng.Intn(side) {
			seq = append(seq, Pair{RIndex: rs[k], SIndex: ss[k]})
		}
		kind := []string{"sound", "R reused", "S reused", "repeat"}[seed%4]
		if len(seq) > 0 && kind != "sound" {
			old, fresh := seq[rng.Intn(len(seq))], Pair{RIndex: rs[len(seq)], SIndex: ss[len(seq)]}
			bad := map[string]Pair{
				"R reused": {RIndex: old.RIndex, SIndex: fresh.SIndex},
				"S reused": {RIndex: fresh.RIndex, SIndex: old.SIndex},
				"repeat":   old,
			}[kind]
			at := rng.Intn(len(seq) + 1)
			seq = slices.Insert(seq, at, bad)
		}
		tab := &Table{}
		for n, p := range seq {
			tab.Add(p)
			want := seq[:n+1]
			label := fmt.Sprintf("seed %d (%s) after %d pairs %v", seed, kind, n+1, want)
			for i := -1; i <= side; i++ {
				for j := -1; j <= side; j++ {
					if tab.Contains(i, j) != want.contains(i, j) {
						t.Fatalf("%s: Contains(%d,%d) = %v", label, i, j, !want.contains(i, j))
					}
				}
				if got := tab.MatchesOfR(nil, i); !reflect.DeepEqual(got, want.matchesOf(i, true)) {
					t.Fatalf("%s: MatchesOfR(%d) = %v, want %v", label, i, got, want.matchesOf(i, true))
				}
				if got := tab.MatchesOfS(nil, i); !reflect.DeepEqual(got, want.matchesOf(i, false)) {
					t.Fatalf("%s: MatchesOfS(%d) = %v, want %v", label, i, got, want.matchesOf(i, false))
				}
			}
			if tab.Len() != len(want) || !slices.Equal(slices.Collect(tab.All()), want) || !slices.Equal(tab.Pairs(0, tab.Len()), want) {
				t.Fatalf("%s: log %v", label, slices.Collect(tab.All()))
			}
			for k := range want {
				if tab.At(k) != want[k] {
					t.Fatalf("%s: At(%d) = %v", label, k, tab.At(k))
				}
			}
			if got := tab.Uniqueness(); (got == nil) != (want.uniqueness() == "") || got != nil && got.Error() != want.uniqueness() {
				t.Fatalf("%s: Uniqueness = %v, want %q", label, got, want.uniqueness())
			}
		}
		if kind != "sound" || len(seq) == 0 {
			continue
		}
		perm := slices.Clone(seq)
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		if err := tab.Reorder(perm); err != nil || !slices.Equal(slices.Collect(tab.All()), perm) {
			t.Fatalf("seed %d: Reorder(%v) = %v, log %v", seed, perm, err, slices.Collect(tab.All()))
		}
		doctored := slices.Clone(perm)
		doctored[0].SIndex = (doctored[0].SIndex + 1) % side
		if err := tab.Reorder(doctored); err == nil || !slices.Equal(slices.Collect(tab.All()), perm) {
			t.Fatalf("seed %d: Reorder(%v) = %v, log %v", seed, doctored, err, slices.Collect(tab.All()))
		}
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
	if g, w := slices.Collect(got.MT.All()), slices.Collect(want.MT.All()); !reflect.DeepEqual(g, w) {
		t.Fatalf("blocked %v != reference %v", g, w)
	}
	if got.MT.Len() != 1 {
		t.Fatalf("pairs = %v, want the -0.0/+0.0 pair", slices.Collect(got.MT.All()))
	}
}
