package hub

// What a key index may not do: take two keys for one because of the bytes
// in them, or hold an extended image to more than §4.2 does. Both were
// live on the parent of the PR that hashed the indexes — a key projection
// joined its columns with "\x1f" and each value's kind prefix, so
// ("x\x1fs:y", "z") and ("x", "y\x1fs:z") were one extended key and one
// candidate key; CheckInvariants demanded that an image begin with its
// source tuple, which an ILFD filling the source's own NULL column breaks
// — and both are pinned here on hand-written tuples, then given to the
// simulator as a workload kind ("hostile") for the model to hold every
// backend and surface to.

import (
	"strings"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// stringSource registers an empty source of string attributes under the
// given key.
func stringSource(t *testing.T, h *Hub, name string, key []string, attrs ...string) {
	t.Helper()
	as := make([]schema.Attribute, len(attrs))
	for i, a := range attrs {
		as[i] = schema.Attribute{Name: a, Kind: value.KindString}
	}
	if err := h.AddSource(name, relation.New(schema.MustNew(name, as, key))); err != nil {
		t.Fatal(err)
	}
}

// TestSeparatorBytesInValuesJoinNoKeys: two sources linked on the extended
// key {name, cuisine}, a's candidate key (name, street). Tuples whose
// columns differ but whose joined projections would be one string do not
// match, and the second of two such candidate keys is admitted.
func TestSeparatorBytesInValuesJoinNoKeys(t *testing.T) {
	h := New()
	stringSource(t, h, "a", []string{"name", "street"}, "name", "street", "cuisine")
	stringSource(t, h, "b", []string{"id"}, "id", "name", "cuisine")
	if err := h.Link(PairSpec{
		Left: "a", Right: "b", ExtKey: []string{"name", "cuisine"},
		Attrs: []match.AttrMap{{Name: "name", R: "name", S: "name"}, {Name: "cuisine", R: "cuisine", S: "cuisine"}},
	}); err != nil {
		t.Fatal(err)
	}
	put(t, h, "a", "x\x1fs:y", "1 Elm St.", "z")
	if rec := put(t, h, "b", "b0", "x", "y\x1fs:z"); len(rec.Matched) != 0 || len(rec.Cluster.Members) != 1 {
		t.Errorf("(x, y␟s:z) matched: %v — its name and cuisine are not (x␟s:y, z)'s", rec.Matched)
	}
	// The same values column for column do match: nothing was lost.
	if rec := put(t, h, "b", "b1", "x\x1fs:y", "z"); len(rec.Matched) != 1 || rec.Matched[0].Source != "a" || rec.Matched[0].Index != 0 {
		t.Errorf("(x␟s:y, z) matched %v, want a/0", rec.Matched)
	}
	// a's key: ("p␟s:q", "r") and ("p", "q␟s:r") are two keys.
	put(t, h, "a", "p\x1fs:q", "r", "thai")
	if _, err := h.Insert("a", strs("p", "q\x1fs:r", "thai")); err != nil {
		t.Errorf("the key (p, q␟s:r) was refused after (p␟s:q, r): %v", err)
	}
	if _, err := h.Insert("a", strs("p", "q\x1fs:r", "greek")); err == nil || !strings.Contains(err.Error(), "duplicates tuple 2") {
		t.Errorf("the key (p, q␟s:r) again = %v, want it refused as a duplicate of tuple 2", err)
	}
	for key, want := range map[[2]string]string{{"p\x1fs:q", "r"}: "a/1", {"p", "q\x1fs:r"}: "a/2", {"x\x1fs:y", "1 Elm St."}: "a/0"} {
		if c, err := h.Lookup("a", value.String(key[0]), value.String(key[1])); err != nil || c.ID != want {
			t.Errorf("Lookup(%q) = cluster %q (%v), want %s", key, c.ID, err, want)
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCheckInvariantsWhenAnILFDFillsTheSourcesOwnColumn: source a models
// cuisine itself and leaves it NULL; the ILFD speciality=hunan →
// cuisine=chinese fills it in a's extended image, which then differs from
// a's tuple inside a's own arity — §4.2's R′ all the same: it agrees with
// R wherever R is not NULL. CheckInvariants has nothing to say, and the
// derived value does the matching.
func TestCheckInvariantsWhenAnILFDFillsTheSourcesOwnColumn(t *testing.T) {
	h := New()
	stringSource(t, h, "a", []string{"name"}, "name", "speciality", "cuisine")
	stringSource(t, h, "b", []string{"name"}, "name", "cuisine")
	if err := h.Link(PairSpec{
		Left: "a", Right: "b", ExtKey: []string{"name", "cuisine"},
		Attrs: []match.AttrMap{{Name: "name", R: "name", S: "name"}, {Name: "cuisine", R: "cuisine", S: "cuisine"}, {Name: "speciality", R: "speciality"}},
		ILFDs: ilfd.Set{ilfd.MustNew(ilfd.Conditions{ilfd.C("speciality", "hunan")}, ilfd.Conditions{ilfd.C("cuisine", "chinese")})},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Insert("a", relation.Tuple{value.String("wok"), value.String("hunan"), value.Null}); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("after an ILFD filled a NULL of the source's own: %v", err)
	}
	res, err := h.PairResult("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.RPrime.MustValue(0, "cuisine"); !value.Equal(got, value.String("chinese")) {
		t.Errorf("the image's cuisine is %v, want the derived chinese", got)
	}
	if rec := put(t, h, "b", "wok", "chinese"); len(rec.Matched) != 1 {
		t.Errorf("(wok, chinese) matched %v, want a/0 through the derived cuisine", rec.Matched)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestSimHostile is the hostile workload as a pinned schedule: inserts one
// by one, in a batch and in streams, snapshots, a clean and a killed
// restart — every step held to the model and to CheckInvariants, on both
// backends — and what the schedule must have exercised to mean anything:
// both keys of a pair that joins to one string were admitted, A–B matched
// across values that hold the separator, and some image of A differs from
// its tuple inside A's own arity.
func TestSimHostile(t *testing.T) {
	ws := workSpec{kind: "hostile", shuffle: 15, mutants: 3, seeded: 5, cfg: datagen.MultiConfig{Entities: 24, Seed: 15}}
	w := ws.build()
	n := len(w.items)
	ops := append(setup(w), seq(0, n/4)...)
	ops = append(ops, snap(), batch(span(n/4, n/2)...), reopen(reopenClose))
	ops = append(ops, streams(2, 0, 1, span(n/2, 3*n/4), span(3*n/4, n)), snap(), reopen(reopenKill))
	for _, r := range runSchedule(t, schedule{work: ws, opts: simOpts{syncEvery: 3, chunkBytes: 256, hotClusters: 8, runItems: 4}, ops: ops}) {
		a, err := r.h.SourceRelation("A")
		if err != nil {
			t.Fatal(err)
		}
		twins := 0
		for i := 0; i < a.Len(); i++ {
			for j := 0; j < i; j++ {
				if ti, tj := a.Tuple(i), a.Tuple(j); ti[0].Str()+joinedSep+ti[1].Str() == tj[0].Str()+joinedSep+tj[1].Str() {
					twins++
				}
			}
		}
		res, err := r.h.PairResult("A", "B")
		if err != nil {
			t.Fatal(err)
		}
		filled, hostile := 0, 0
		cuisine := a.Schema().Index("cuisine")
		for i := 0; i < a.Len(); i++ {
			if a.Tuple(i)[cuisine].IsNull() && !res.RPrime.MustValue(i, "cuisine").IsNull() {
				filled++
			}
		}
		for p := range res.MT.All() {
			if name := res.RPrime.MustValue(p.RIndex, "name"); strings.Contains(name.Str(), joinedSep) {
				hostile++
			}
		}
		if twins == 0 || filled == 0 || hostile == 0 || res.MT.Len() < 3 {
			t.Errorf("%s: %d key pairs that join to one string, %d of A's NULL cuisines derived, %d of %d A–B matches on a name holding the separator: the schedule exercises nothing",
				r.backend, twins, filled, hostile, res.MT.Len())
		}
	}
}
