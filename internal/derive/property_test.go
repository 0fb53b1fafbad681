package derive

import (
	"fmt"
	"math/rand"
	"testing"

	"entityid/internal/ilfd"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// randWorld builds a random relation and a random consistent ILFD set
// over a small vocabulary. Consistency is guaranteed by deriving each
// rule's consequent from a fixed functional table attr->value, so no
// two rules ever disagree.
func randWorld(rng *rand.Rand) (*relation.Relation, ilfd.Set, []schema.Attribute) {
	baseAttrs := []schema.Attribute{
		{Name: "a", Kind: value.KindString},
		{Name: "b", Kind: value.KindString},
		{Name: "id", Kind: value.KindInt},
	}
	extra := []schema.Attribute{
		{Name: "x", Kind: value.KindString},
		{Name: "y", Kind: value.KindString},
	}
	sch := schema.MustNew("T", baseAttrs, []string{"id"})
	r := relation.New(sch)
	vals := []string{"0", "1", "2"}
	for i := 0; i < 3+rng.Intn(6); i++ {
		r.MustInsert(
			value.String(vals[rng.Intn(len(vals))]),
			value.String(vals[rng.Intn(len(vals))]),
			value.Int(int64(i)),
		)
	}
	// Functional consequent assignment: x determined by a-value, y by
	// x-value (to force chains).
	var fs ilfd.Set
	for _, v := range vals {
		if rng.Intn(2) == 0 {
			fs = append(fs, ilfd.MustNew(
				ilfd.Conditions{ilfd.C("a", v)},
				ilfd.Conditions{ilfd.C("x", "x"+v)},
			))
		}
		if rng.Intn(2) == 0 {
			fs = append(fs, ilfd.MustNew(
				ilfd.Conditions{ilfd.C("x", "x"+v)},
				ilfd.Conditions{ilfd.C("y", "y"+v)},
			))
		}
	}
	return r, fs, extra
}

// TestExtendIdempotent: extending an already-extended relation with an
// empty extra set derives nothing new (the fixpoint was reached).
func TestExtendIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		r, fs, extra := randWorld(rng)
		for _, mode := range []Mode{FirstMatch, Fixpoint} {
			once, conf, err := Extend(r, "T'", extra, fs, Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if len(conf) != 0 {
				t.Fatalf("trial %d: consistent world produced conflicts: %v", trial, conf)
			}
			twice, conf, err := Extend(once, "T'", nil, fs, Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if len(conf) != 0 {
				t.Fatalf("trial %d: re-extension produced conflicts: %v", trial, conf)
			}
			if !once.Equal(twice) {
				t.Fatalf("trial %d (%v): extension not idempotent:\n%s\nvs\n%s",
					trial, mode, once, twice)
			}
		}
	}
}

// TestExtendModesAgreeOnConsistentKnowledge: with functionally
// consistent ILFDs, cut and fixpoint derivation produce identical
// extensions.
func TestExtendModesAgreeOnConsistentKnowledge(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 100; trial++ {
		r, fs, extra := randWorld(rng)
		cut, _, err := Extend(r, "T'", extra, fs, Options{Mode: FirstMatch})
		if err != nil {
			t.Fatal(err)
		}
		fix, conf, err := Extend(r, "T'", extra, fs, Options{Mode: Fixpoint})
		if err != nil {
			t.Fatal(err)
		}
		if len(conf) != 0 {
			t.Fatalf("trial %d: conflicts on consistent set: %v", trial, conf)
		}
		if !cut.Equal(fix) {
			t.Fatalf("trial %d: modes disagree:\n%s\nvs\n%s", trial, cut, fix)
		}
	}
}

// TestExtendRuleOrderIrrelevantForFixpoint: permuting the ILFD set does
// not change the fixpoint extension.
func TestExtendRuleOrderIrrelevantForFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		r, fs, extra := randWorld(rng)
		if len(fs) < 2 {
			continue
		}
		ref, _, err := Extend(r, "T'", extra, fs, Options{Mode: Fixpoint})
		if err != nil {
			t.Fatal(err)
		}
		perm := make(ilfd.Set, len(fs))
		copy(perm, fs)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		got, _, err := Extend(r, "T'", extra, perm, Options{Mode: Fixpoint})
		if err != nil {
			t.Fatal(err)
		}
		if !ref.Equal(got) {
			t.Fatalf("trial %d: fixpoint order-sensitive", trial)
		}
	}
}

// TestExtenderMatchesExtend: an extender held across tuples produces,
// tuple by tuple through ExtendTuple, what the one-shot Extend does.
func TestExtenderMatchesExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 50; trial++ {
		r, fs, extra := randWorld(rng)
		cached, _, err := Extend(r, "T'", extra, fs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ext := NewExtender(fs, Options{})
		extSch := cached.Schema()
		for i, base := range r.Tuples() {
			tup := make(relation.Tuple, extSch.Arity())
			copy(tup, base)
			for j := len(base); j < extSch.Arity(); j++ {
				tup[j] = value.Null
			}
			if _, err := ext.ExtendTuple(extSch, tup); err != nil {
				t.Fatal(err)
			}
			if !tup.Identical(cached.Tuple(i)) {
				t.Fatalf("trial %d tuple %d: ExtendTuple %v vs Extend %v",
					trial, i, tup, cached.Tuple(i))
			}
		}
	}
}

func TestExtendTupleArityCheck(t *testing.T) {
	ext := NewExtender(nil, Options{})
	sch := schema.MustNew("T", []schema.Attribute{{Name: "a", Kind: value.KindString}})
	if _, err := ext.ExtendTuple(sch, relation.Tuple{}); err == nil {
		t.Error("wrong arity accepted")
	}
}

var _ = fmt.Sprintf // reserved for debugging helpers

// TestIndexedCandidatesMatchUnindexed pins the discrimination index
// against an unindexed reference: for ILFD sets whose antecedents are
// deliberately NOT in canonical order (raw struct literals bypass
// ilfd.New's normalization), the index must surface exactly the rules
// whose canonically smallest antecedent condition holds in the tuple
// (plus empty-antecedent rules), and Extend must produce the same
// relation with and without pruning, in both modes.
func TestIndexedCandidatesMatchUnindexed(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		r, fs, extra := randWorld(rng)
		// Scramble every antecedent (and add a two-condition rule) so
		// position 0 is often NOT the canonically smallest condition.
		scrambled := make(ilfd.Set, 0, len(fs)+1)
		for _, f := range fs {
			g := ilfd.ILFD{
				Antecedent: append(ilfd.Conditions(nil), f.Antecedent...),
				Consequent: f.Consequent,
			}
			rng.Shuffle(len(g.Antecedent), func(i, j int) {
				g.Antecedent[i], g.Antecedent[j] = g.Antecedent[j], g.Antecedent[i]
			})
			scrambled = append(scrambled, g)
		}
		scrambled = append(scrambled, ilfd.ILFD{
			// Unsorted literal: "b" sorts before "x0..", so index key
			// must be the b-condition, not Antecedent[0].
			Antecedent: ilfd.Conditions{ilfd.C("x", "x0"), ilfd.C("b", "1")},
			Consequent: ilfd.Conditions{ilfd.C("y", "yb")},
		})

		// Candidate sets: the index vs a brute-force reference.
		extSch, err := r.Schema().Extend("T'", extra)
		if err != nil {
			t.Fatal(err)
		}
		ix := bind(scrambled, extSch)
		padded := func(ti int) relation.Tuple {
			ext := make(relation.Tuple, extSch.Arity())
			copy(ext, r.Tuple(ti))
			for i := r.Schema().Arity(); i < extSch.Arity(); i++ {
				ext[i] = value.Null
			}
			return ext
		}
		for ti := 0; ti < r.Len(); ti++ {
			ext := padded(ti)
			got := ix.candidates(ext, nil)
			var want []int
			for fi, f := range scrambled {
				if len(f.Antecedent) == 0 {
					want = append(want, fi)
					continue
				}
				min := f.Antecedent[0]
				for _, c := range f.Antecedent[1:] {
					if c.Compare(min) < 0 {
						min = c
					}
				}
				j := extSch.Index(min.Attr)
				if j >= 0 && !ext[j].IsNull() && value.Equal(ext[j], min.Val) {
					want = append(want, fi)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d tuple %d: indexed candidates %v, unindexed reference %v", trial, ti, got, want)
			}
		}

		// End-to-end: pruned and unpruned derivation agree bit-for-bit.
		unpruned := bind(scrambled, extSch)
		unpruned.byCol, unpruned.always = make([]map[value.Value][]int, extSch.Arity()), nil
		for fi := range scrambled {
			unpruned.always = append(unpruned.always, fi)
		}
		for _, mode := range []Mode{FirstMatch, Fixpoint} {
			indexed, _, err := Extend(r, "T'", extra, scrambled, Options{Mode: mode})
			if err != nil {
				t.Fatalf("trial %d mode %v indexed: %v", trial, mode, err)
			}
			if indexed.Len() != r.Len() {
				t.Fatalf("trial %d mode %v: %d vs %d tuples", trial, mode, indexed.Len(), r.Len())
			}
			for i := 0; i < indexed.Len(); i++ {
				plain := padded(i)
				if _, err := unpruned.derive(plain, i, Options{Mode: mode}); err != nil {
					t.Fatalf("trial %d mode %v unindexed: %v", trial, mode, err)
				}
				if !indexed.Tuple(i).Identical(plain) {
					t.Fatalf("trial %d mode %v tuple %d: indexed %v, unindexed %v",
						trial, mode, i, indexed.Tuple(i), plain)
				}
			}
		}
	}
}
