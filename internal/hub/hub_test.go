package hub

// Fixtures: the hub's guarantees on hand-written tuples, one scenario
// per §3.2 guard, with the receipts, typed errors and messages a caller
// sees. The simulator (sim_test.go) draws the same four-source ring at
// random and checks every outcome against the model; these say what the
// outcomes look like.

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"entityid/internal/match"
	"entityid/internal/obs"
	"entityid/internal/relation"
	"entityid/internal/resolve"
	"entityid/internal/schema"
	"entityid/internal/store"
	"entityid/internal/store/disk"
	"entityid/internal/value"
)

// fourSourceHub is the simulator's ring on a memory-only hub: four
// autonomous sources with one attribute pair each in common, so every
// link matches on a different extended key, and nobody with code "kx"
// is anybody with phone "px" (the one distinctness rule) —
//
//	A(id, name, code)   ── name ──  B(id, name, phone)
//	   │ code                          │ phone
//	C(id, code, city)   ── city ──  D(id, phone, city)
func fourSourceHub(t *testing.T) *Hub {
	t.Helper()
	w := workSpec{kind: "ring"}.build()
	h := New()
	for k, name := range w.names {
		if err := h.AddSource(name, w.seeds[k].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range w.links {
		if err := h.Link(spec); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// strs is a tuple of strings.
func strs(vals ...string) relation.Tuple {
	tup := make(relation.Tuple, len(vals))
	for i, v := range vals {
		tup[i] = value.String(v)
	}
	return tup
}

func put(t *testing.T, h *Hub, source string, vals ...string) *Receipt {
	t.Helper()
	rec, err := h.Insert(source, strs(vals...))
	if err != nil {
		t.Fatalf("insert %s %v: %v", source, vals, err)
	}
	return rec
}

// seedSource registers a string source (id, attrs...) holding rows.
func seedSource(t *testing.T, h *Hub, name string, attrs []string, rows ...[]string) {
	t.Helper()
	as := []schema.Attribute{{Name: "id", Kind: value.KindString}}
	for _, a := range attrs {
		as = append(as, schema.Attribute{Name: a, Kind: value.KindString})
	}
	rel := relation.New(schema.MustNew(name, as, []string{"id"}))
	for _, row := range rows {
		if err := rel.InsertStrings(row...); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.AddSource(name, rel); err != nil {
		t.Fatal(err)
	}
}

// linkOn links two sources on the one attribute they share.
func linkOn(h *Hub, left, right, shared string) error {
	return h.Link(PairSpec{
		Left: left, Right: right, ExtKey: []string{shared},
		Attrs: []match.AttrMap{{Name: shared, R: shared, S: shared}, {Name: "id_" + left, R: "id"}, {Name: "id_" + right, S: "id"}},
	})
}

func TestHubClustersAcrossPairs(t *testing.T) {
	h := fourSourceHub(t)
	put(t, h, "A", "a0", "n1", "k1")
	rec := put(t, h, "B", "b0", "n1", "p9")
	if len(rec.Matched) != 1 || rec.Matched[0].Source != "A" || rec.Matched[0].Index != 0 {
		t.Fatalf("b0 matched %v, want A/0", rec.Matched)
	}
	if got := len(rec.Cluster.Members); got != 2 {
		t.Fatalf("cluster size %d, want 2", got)
	}
	// d0 matches b0 on phone; the cluster becomes {a0, b0, d0}
	// transitively even though A and D share no link.
	rec = put(t, h, "D", "d0", "p9", "mpls")
	if got := len(rec.Cluster.Members); got != 3 {
		t.Fatalf("cluster size %d, want 3", got)
	}
	cl, err := h.Lookup("A", value.String("a0"))
	var srcs []string
	for _, m := range cl.Members {
		srcs = append(srcs, fmt.Sprintf("%s/%d", m.Source, m.Index))
	}
	if got := strings.Join(srcs, ","); err != nil || got != "A/0,B/0,D/0" || cl.ID != "A/0" {
		t.Fatalf("cluster %q with members %q (%v), want A/0 with A/0,B/0,D/0", cl.ID, got, err)
	}
}

func TestHubRejectsTransitiveUniquenessViolationWithRollback(t *testing.T) {
	h := fourSourceHub(t)
	put(t, h, "A", "a0", "n1", "k1")
	put(t, h, "A", "a1", "n2", "k2")
	put(t, h, "B", "b0", "n1", "p9")   // cluster {a0, b0} via name
	put(t, h, "C", "c0", "k2", "mpls") // cluster {a1, c0} via code

	before := h.Stats()
	// d0 matches b0 on phone (pair B-D) and c0 on city (pair C-D); both
	// pairwise matches are individually sound, but the union would put
	// a0 and a1 — two tuples of source A — into one cluster.
	_, err := h.Insert("D", relation.Tuple{
		value.String("d0"), value.String("p9"), value.String("mpls"),
	})
	if err == nil {
		t.Fatal("transitive uniqueness violation not rejected")
	}
	if !strings.Contains(err.Error(), "transitive uniqueness") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Rollback: nothing changed anywhere — no tuple in D, no pairwise
	// matches added, clusters as before.
	if after := h.Stats(); !reflect.DeepEqual(before, after) {
		t.Fatalf("state changed by rejected insert: %+v -> %+v", before, after)
	}
	if n, _ := h.SourceLen("D"); n != 0 {
		t.Fatalf("D has %d tuples after rejected insert, want 0", n)
	}
	// The hub keeps serving: a non-violating D tuple goes through.
	rec := put(t, h, "D", "d1", "p7", "duluth")
	if len(rec.Matched) != 0 || len(rec.Cluster.Members) != 1 {
		t.Fatalf("benign insert after rejection: %+v", rec)
	}
}

// uniquenessRejections scrapes hub_uniqueness_rejections_total.
func uniquenessRejections(t *testing.T) int {
	t.Helper()
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "hub_uniqueness_rejections_total "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("hub_uniqueness_rejections_total not exposed")
	return 0
}

// TestHubPairwiseGuardRejections sends an insert into each §3.2 guard of
// a pairwise federation. Whichever pair rejects it, and whatever the
// pairs prepared before that one found, nothing moves: Stats, every
// pair's matching table and extended relations, every source. The
// uniqueness counter counts the two uniqueness guards and not the
// consistency guard.
func TestHubPairwiseGuardRejections(t *testing.T) {
	h := fourSourceHub(t)
	put(t, h, "A", "a0", "n1", "k1")
	put(t, h, "B", "b0", "n1", "p1") // {a0, b0} via name
	put(t, h, "A", "a1", "n2", "k2") // two A's named n2 while B has none
	put(t, h, "A", "a2", "n2", "k3")
	put(t, h, "A", "a3", "n3", "kx")
	put(t, h, "A", "a4", "n4", "k4")
	put(t, h, "D", "d0", "p4", "c1") // two D's on phone p4 while B has none
	put(t, h, "D", "d1", "p4", "c2")

	for _, c := range []struct {
		tuple   []string
		guard   error
		text    string
		counted int
	}{
		{[]string{"b1", "n1", "p2"}, match.ErrUniqueness, "uniqueness violation: R tuple 0 already matched to S tuple 0", 1},
		{[]string{"b1", "n2", "p2"}, match.ErrUniqueness, "insert would match 2 tuples at once (unsound)", 1},
		{[]string{"b1", "n3", "px"}, match.ErrConsistency, `distinctness rule "kx-px" forbids`, 0},
		// A-B prepares first and finds a4; B-D, prepared after it, rejects.
		{[]string{"b1", "n4", "p4"}, match.ErrUniqueness, `source "B" vs "D": match: uniqueness violation: insert would match 2 tuples at once (unsound)`, 1},
	} {
		stats, state := h.Stats(), stateOf(h)
		counter := uniquenessRejections(t)
		_, err := h.Insert("B", strs(c.tuple...))
		if !errors.Is(err, c.guard) || !strings.Contains(err.Error(), c.text) {
			t.Fatalf("insert %v = %v, want %v with %q", c.tuple, err, c.guard, c.text)
		}
		if got := uniquenessRejections(t) - counter; got != c.counted {
			t.Fatalf("insert %v moved hub_uniqueness_rejections_total by %d, want %d", c.tuple, got, c.counted)
		}
		mustEqualState(t, fmt.Sprintf("after the rejected insert %v", c.tuple), stateOf(h), state)
		if err := h.CheckInvariants(); err != nil || h.Stats() != stats {
			t.Fatalf("insert %v, rejected, changed state: %+v -> %+v (%v)", c.tuple, stats, h.Stats(), err)
		}
	}
	// The hub keeps serving, and the rejected tuples left no index entry
	// behind: b1 arrives at last and matches a4 alone.
	rec := put(t, h, "B", "b1", "n4", "p5")
	if rec.Index != 1 || len(rec.Matched) != 1 || rec.Matched[0].Source != "A" || rec.Matched[0].Index != 4 {
		t.Fatalf("valid insert after the rejections: %+v", rec)
	}
}

// onBothStores runs fn on a memory-only hub and on a hub over the disk
// store with a hot tier of two cluster entries — one two-member record —
// so that a link's fold reads the clusters it seeds from cold records.
func onBothStores(t *testing.T, fn func(t *testing.T, h *Hub)) {
	for _, name := range []string{"mem", "disk"} {
		t.Run(name, func(t *testing.T) {
			h := New()
			if name == "disk" {
				b, err := disk.Open(filepath.Join(t.TempDir(), storeTierDir), store.Caps{HotClusterEntries: 2})
				if err != nil {
					t.Fatal(err)
				}
				h = NewWithBackend(b)
			}
			t.Cleanup(func() { h.Close() })
			fn(t, h)
		})
	}
}

// linkReadsCold links and reports the failure, demanding on the disk
// store that the link's fold read a cluster from the spill tier.
func linkReadsCold(t *testing.T, h *Hub, left, right, shared string) error {
	t.Helper()
	misses := h.StoreInfo().Clusters.Misses
	err := linkOn(h, left, right, shared)
	if si := h.StoreInfo(); si.Backend == "disk" && si.Clusters.Misses == misses {
		t.Fatalf("link %s-%s read no cold cluster: %+v", left, right, si.Clusters)
	}
	return err
}

// partitionOf is the cluster store's partition, read under the commit
// lock.
func partitionOf(t *testing.T, h *Hub) [][]node {
	t.Helper()
	h.commitMu.Lock()
	defer h.commitMu.Unlock()
	part, err := h.clusters.Partition()
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// TestHubLinkFoldsSeededSources: sources seeded before Link — the
// initial matching table folds into clusters at link time, the second
// link's over the two clusters the first made, which do not both fit a
// hot tier of two entries.
func TestHubLinkFoldsSeededSources(t *testing.T) {
	onBothStores(t, func(t *testing.T, h *Hub) {
		seedSource(t, h, "A", []string{"name"}, []string{"a0", "n1"}, []string{"a1", "n2"}, []string{"a2", "n3"})
		seedSource(t, h, "B", []string{"name", "phone"}, []string{"b0", "n2", "p1"}, []string{"b1", "n3", "p2"})
		seedSource(t, h, "C", []string{"phone"}, []string{"c0", "p1"}, []string{"c1", "p2"})
		if err := linkOn(h, "A", "B", "name"); err != nil {
			t.Fatal(err)
		}
		cl, err := h.Lookup("B", value.String("b0"))
		if err != nil || len(cl.Members) != 2 || cl.ID != "A/1" {
			t.Fatalf("seeded link cluster = %+v (%v)", cl, err)
		}
		if err := linkReadsCold(t, h, "B", "C", "phone"); err != nil {
			t.Fatal(err)
		}
		for key, id := range map[string]string{"c0": "A/1", "c1": "A/2"} {
			cl, err := h.Lookup("C", value.String(key))
			if err != nil || len(cl.Members) != 3 || cl.ID != id {
				t.Fatalf("%s's cluster = %+v (%v), want %s with three members", key, cl, err, id)
			}
		}
		if st := h.Stats(); st.Clusters != 3 {
			t.Fatalf("clusters = %d, want 3 ({a1,b0,c0}, {a2,b1,c1} and {a0})", st.Clusters)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestHubMergedView(t *testing.T) {
	h := fourSourceHub(t)
	put(t, h, "A", "a0", "n1", "k1")
	put(t, h, "B", "b0", "n1", "p9")
	put(t, h, "D", "d0", "p9", "mpls")
	cl, err := h.Lookup("A", value.String("a0"))
	if err != nil {
		t.Fatal(err)
	}
	me, err := h.Merged(cl, resolve.Coalesce)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"name": "n1", "code": "k1", "phone": "p9", "city": "mpls",
		"id_A": "a0", "id_B": "b0", "id_D": "d0",
	}
	for attr, wv := range want {
		if got, ok := me.Values[attr]; !ok || got.String() != wv {
			t.Fatalf("merged %q = %v (present %v), want %s", attr, got, ok, wv)
		}
	}
	if len(me.Conflicts) != 0 {
		t.Fatalf("unexpected conflicts %v", me.Conflicts)
	}
}

// TestHubPairwiseStateEqualsBatchBuild: after streamed ingest, a clean
// reopen in the middle (recovery rebuilds the probe's index with each
// pair, which then has to find the second half's partners), each link's
// live matching table is
// §4.2's batch construction over the final relations — the simulator's
// own check, here on a larger world, linked by the extended key and by
// an identity rule that carries every link whose one side lacks cuisine.
func TestHubPairwiseStateEqualsBatchBuild(t *testing.T) {
	for name, kind := range map[string]string{"extended key": "multi", "identity rule": "rule"} {
		t.Run(name, func(t *testing.T) {
			ws := multiWork(3, 80, 0.6, 7, 7)
			ws.kind = kind
			w := ws.build()
			n := len(w.items)
			ops := append(setup(w), streams(0, 0, 0, span(0, n/2)), reopen(reopenClose), batch(span(n/2, n)...))
			for _, r := range runSchedule(t, schedule{work: ws, opts: simOpts{hotClusters: 64}, ops: ops}) {
				if st := r.h.Stats(); st.Tuples != len(w.items) || st.Matches == 0 {
					t.Fatalf("%+v: not every tuple was accepted, or nothing matched", st)
				}
			}
		})
	}
}

// TestHubLinkRejectsTransitiveViolationFromSeededSources: link-time
// folding applies the transitive check inserts get, counting the folded
// node's existing cluster — the first two links cluster {a0, b0, c0},
// and the third's initial table pairs b0 with c1, which would put c0
// and c1 of source C into one cluster.
func TestHubLinkRejectsTransitiveViolationFromSeededSources(t *testing.T) {
	onBothStores(t, func(t *testing.T, h *Hub) {
		seedSource(t, h, "A", []string{"name", "code"}, []string{"a0", "n1", "k1"})
		seedSource(t, h, "B", []string{"name", "phone"}, []string{"b0", "n1", "p1"})
		seedSource(t, h, "C", []string{"code", "phone"}, []string{"c0", "k1", "p9"}, []string{"c1", "k9", "p1"})
		if err := linkOn(h, "A", "B", "name"); err != nil {
			t.Fatal(err)
		}
		if err := linkOn(h, "A", "C", "code"); err != nil {
			t.Fatal(err)
		}
		stats, part := h.Stats(), partitionOf(t, h)
		records := func() int { c := h.StoreInfo().Clusters; return c.HotRecords + c.ColdRecords }
		recs := records()
		// Typed like an insert rejected for the same reason: one function
		// (store.CheckMerge) decides both.
		err := linkReadsCold(t, h, "B", "C", "phone")
		if !errors.Is(err, store.ErrUniqueness) || !strings.Contains(err.Error(), `tuples 0 and 1 of source "C"`) {
			t.Fatalf("seeded link folding missed the violation, or left it untyped: %v", err)
		}
		if h.Stats() != stats || records() != recs || !reflect.DeepEqual(partitionOf(t, h), part) {
			t.Fatalf("rejected link changed state: %+v over %d records -> %+v over %d", stats, recs, h.Stats(), records())
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFoldRejectsAChainThroughOneSource folds the three-source shape of
// the test above the way a snapshot load does — every table at once, no
// store beneath: each table is sound pairwise, but a0-b0, a0-c0 and
// b0-c1 chain c0 and c1 of source C into one component. The fold names
// them, and nothing reaches the store.
func TestFoldRejectsAChainThroughOneSource(t *testing.T) {
	h := New()
	seedSource(t, h, "A", nil, []string{"a0"})
	seedSource(t, h, "B", nil, []string{"b0"})
	seedSource(t, h, "C", nil, []string{"c0"}, []string{"c1"})
	tables := []linkTable{
		{left: 0, right: 1, mt: match.NewTable(nil, nil, match.Pair{RIndex: 0, SIndex: 0})},
		{left: 0, right: 2, mt: match.NewTable(nil, nil, match.Pair{RIndex: 0, SIndex: 0})},
		{left: 1, right: 2, mt: match.NewTable(nil, nil, match.Pair{RIndex: 0, SIndex: 1})},
	}
	folded, _, err := foldTables(h.sourceLens(), tables[:2], nil, h.sourceName)
	if want := [][]node{{{Src: 0, Idx: 0}, {Src: 1, Idx: 0}, {Src: 2, Idx: 0}}}; err != nil || !reflect.DeepEqual(folded, want) {
		t.Fatalf("fold of the two sound tables = %v (%v), want %v", folded, err, want)
	}
	_, _, err = foldTables(h.sourceLens(), tables, nil, h.sourceName)
	if !errors.Is(err, store.ErrUniqueness) || !strings.Contains(err.Error(), `link "B"-"C": pair (0,1)`) ||
		!strings.Contains(err.Error(), `tuples 0 and 1 of source "C"`) {
		t.Fatalf("fold of a chain through two tuples of C = %v, want a uniqueness violation naming both", err)
	}
	if part := partitionOf(t, h); len(part) != 0 || h.clusters.Merged() != 0 {
		t.Fatalf("a rejected fold published %v", part)
	}
}

func TestHubLinkValidation(t *testing.T) {
	h := fourSourceHub(t)
	if err := h.Link(PairSpec{Left: "A", Right: "B"}); err == nil {
		t.Fatal("duplicate link accepted")
	}
	if err := h.Link(PairSpec{Left: "A", Right: "A"}); err == nil {
		t.Fatal("self link accepted")
	}
	if err := h.Link(PairSpec{Left: "A", Right: "nope"}); err == nil {
		t.Fatal("unknown source accepted")
	}
	// Conflicting integrated-name mapping: A-D link claiming "name" maps
	// to A's "code" clashes with the A-B link's name→name.
	err := h.Link(PairSpec{
		Left: "A", Right: "D",
		Attrs: []match.AttrMap{
			{Name: "name", R: "code", S: "phone"},
			{Name: "id_A", R: "id", S: ""},
			{Name: "id_D", R: "", S: "id"},
		},
		ExtKey: []string{"name"},
	})
	if err == nil || !strings.Contains(err.Error(), "maps to both") {
		t.Fatalf("conflicting attribute mapping: %v", err)
	}
}
