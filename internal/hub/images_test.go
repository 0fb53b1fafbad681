package hub

import (
	"slices"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/rules"
)

// imageCounts returns how many images and probe indexes the hub's sources
// keep, and how many pair sides read them.
func (h *Hub) imageCounts() (images, indexes, sides int) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, s := range h.sources {
		images += len(s.images)
		for _, im := range s.images {
			indexes += im.Indexes()
		}
	}
	return images, indexes, 2 * len(h.pairs)
}

// pairsEqualBuild holds every link of h to a standalone match.Build of its
// configuration over the sources as they stand: R′ and S′ cell for cell,
// the matching table as a set, Verify and the Figure 3 counts — and each
// image as long as its source.
func pairsEqualBuild(t *testing.T, h *Hub) {
	t.Helper()
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, s := range h.sources {
		for _, im := range s.images {
			if im.Relation().Len() != s.rel.Len() {
				t.Fatalf("source %q: an image of %d rows over %d tuples", s.name, im.Relation().Len(), s.rel.Len())
			}
		}
	}
	sorted := func(mt *match.Table) []match.Pair {
		ps := mt.Pairs(0, mt.Len())
		match.SortPairs(ps)
		return ps
	}
	for _, p := range h.pairs {
		live := p.res
		want, err := match.Build(h.matchConfig(p.left, p.right, p.spec))
		if err != nil {
			t.Fatal(err)
		}
		id := p.spec.Left + "-" + p.spec.Right
		for n, v := range [][2]*relation.Relation{{live.RPrime, want.RPrime}, {live.SPrime, want.SPrime}} {
			if !v[0].Schema().Equal(v[1].Schema()) || v[0].Len() != v[1].Len() {
				t.Fatalf("%s side %d: %v of %d rows, Build %v of %d", id, n, v[0].Schema(), v[0].Len(), v[1].Schema(), v[1].Len())
			}
			for i := range v[0].Len() {
				if got, w := v[0].Tuple(i), v[1].Tuple(i); !got.Identical(w) {
					t.Fatalf("%s side %d row %d: %v, Build %v", id, n, i, got, w)
				}
			}
		}
		if got, w := sorted(live.MT), sorted(want.MT); !slices.Equal(got, w) {
			t.Fatalf("%s: table %v, Build %v", id, got, w)
		}
		if err, werr := live.Verify(), want.Verify(); err != nil || werr != nil {
			t.Fatalf("%s: Verify %v, Build's %v", id, err, werr)
		}
		a, b, c := live.Counts()
		if x, y, z := want.Counts(); a != x || b != y || c != z {
			t.Fatalf("%s: counts %d/%d/%d, Build %d/%d/%d", id, a, b, c, x, y, z)
		}
	}
}

// TestImagesShared: on datagen's four-source mesh each source's three
// links agree on what fills it — its renames, no ILFD live on an even
// source, the whole family on an odd one — so the hub keeps one image
// and one probe index per source for twelve pair sides. A fifth source's
// link to source 0 on a longer extended key shares source 0's image and
// files its own index there; its link to source 1 on an identity rule
// and no ILFDs, where source 1's other links fire the family, makes
// source 1 an image of its own. Every pair
// is what a standalone Build of it is, live and after a reopen, which
// builds the same images.
func TestImagesShared(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 5, Entities: 80, PresenceFrac: 0.6,
		HomonymRate: 0.1, MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 38,
	})
	dir := t.TempDir()
	h, _, err := openOn(dir, Options{Store: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	for k, name := range w.Names {
		if err := h.AddSource(name, relation.New(w.Relations[k].Schema())); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 4 {
		for j := i + 1; j < 4; j++ {
			if err := h.Link(SpecFromMultiPair(w.Pair(i, j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	items := MultiInserts(w)
	ingest := func(items []Insert) {
		t.Helper()
		for _, res := range h.IngestBatch(items) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}
	var firstHalf, rest []Insert
	for n, it := range items {
		if it.Source != w.Names[4] && n%2 == 0 {
			firstHalf = append(firstHalf, it)
		} else {
			rest = append(rest, it)
		}
	}
	ingest(firstHalf)
	expect := func(when string, images, indexes, sides int) {
		t.Helper()
		if a, b, c := h.imageCounts(); a != images || b != indexes || c != sides {
			t.Fatalf("%s: %d images, %d probe indexes, %d pair sides; want %d, %d, %d", when, a, b, c, images, indexes, sides)
		}
	}
	expect("mesh", 4, 4, 12)
	pairsEqualBuild(t, h)

	longer := SpecFromMultiPair(w.Pair(0, 4))
	longer.ExtKey = []string{"name", "cuisine", "phone"}
	namePhone, err := rules.KeyEquivalence("name-phone", []string{"name", "phone"})
	if err != nil {
		t.Fatal(err)
	}
	byRule := SpecFromMultiPair(w.Pair(1, 4))
	byRule.ILFDs, byRule.Identity = nil, []rules.IdentityRule{namePhone}
	for _, spec := range []PairSpec{longer, byRule} {
		if err := h.Link(spec); err != nil {
			t.Fatal(err)
		}
	}
	// Source 0 +1 index; source 4 one image, with an index per extended
	// key; source 1 a second image, with its index.
	expect("five sources", 6, 8, 16)
	ingest(rest)
	if st := h.Stats(); st.Tuples != len(items) || st.Matches == 0 {
		t.Fatalf("%+v: not every tuple went in, or nothing matched", st)
	}
	pairsEqualBuild(t, h)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h, info, err := openOn(dir, Options{Store: "mem"})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if info.Images != 6 || info.Pairings != 8 {
		t.Fatalf("the reopen built %d images and %d pairings, want 6 and 8", info.Images, info.Pairings)
	}
	expect("reopened", 6, 8, 16)
	pairsEqualBuild(t, h)
	t.Logf("images: %d images and %d probe indexes for %d pair sides on the four-source mesh; %d, %d and %d with a fifth source's two links",
		4, 4, 12, 6, 8, 16)
}

// TestImageOfALinkThatFailsIsNotKept: a link refused after its pairing
// was built — here its initial table is unsound — leaves no index on the
// images it shares and no image behind.
func TestImageOfALinkThatFailsIsNotKept(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 3, Entities: 40, PresenceFrac: 0.9, HomonymRate: 0.5, Seed: 4,
	})
	h := New()
	for k, name := range w.Names {
		if err := h.AddSource(name, w.Relations[k].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Link(SpecFromMultiPair(w.Pair(0, 1))); err != nil {
		t.Fatal(err)
	}
	before, idx, _ := h.imageCounts()
	// Name alone is no key where names repeat: source 2's link on it
	// matches some tuple twice.
	byName := SpecFromMultiPair(w.Pair(0, 2))
	byName.ExtKey = []string{"name"}
	if err := h.Link(byName); err == nil {
		t.Fatal("a link on an unsound extended key was accepted")
	}
	if a, b, c := h.imageCounts(); a != before || b != idx || c != 2 {
		t.Fatalf("the refused link left %d images and %d indexes for %d sides, want %d and %d for 2", a, b, c, before, idx)
	}
	// The same link on the extended key joins source 0's image and index.
	if err := h.Link(SpecFromMultiPair(w.Pair(0, 2))); err != nil {
		t.Fatal(err)
	}
	if a, b, c := h.imageCounts(); a != before+1 || b != idx+1 || c != 4 {
		t.Fatalf("%d images and %d indexes for %d sides, want %d and %d for 4", a, b, c, before+1, idx+1)
	}
	pairsEqualBuild(t, h)
}

// TestSimMixed pins one schedule of the mixed workload on both backends,
// and what it must have exercised to mean anything: a source whose links
// share an image, and a source that keeps more than one.
func TestSimMixed(t *testing.T) {
	ws := workSpec{kind: "mixed", shuffle: 9, mutants: 2, seeded: 3, cfg: datagen.MultiConfig{
		Sources: 4, Entities: 24, PresenceFrac: 0.7, HomonymRate: 0.25, MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 9}}
	w := ws.build()
	n := len(w.items)
	ops := append(setup(w), seq(0, n/3)...)
	ops = append(ops, snap(), batch(span(n/3, 2*n/3)...), reopen(reopenClose))
	ops = append(ops, streams(2, 0, 1, span(2*n/3, n)), reopen(reopenKill))
	for _, r := range runSchedule(t, schedule{work: ws, opts: simOpts{syncEvery: 3, hotClusters: 8, runItems: 4}, ops: ops}) {
		shared, several := 0, 0
		for _, s := range r.h.sources {
			if len(s.images) < len(s.pairs) {
				shared++
			}
			if len(s.images) > 1 {
				several++
			}
		}
		if shared == 0 || several == 0 {
			t.Errorf("%s: %d sources share an image between links, %d keep several: the schedule mixes nothing", r.backend, shared, several)
		}
		pairsEqualBuild(t, r.h)
	}
}
