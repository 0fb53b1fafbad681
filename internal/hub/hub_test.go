package hub_test

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/hub"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/resolve"
	"entityid/internal/schema"
	"entityid/internal/store"
	"entityid/internal/value"
)

// fourSourceHub builds the hand-written topology used by the
// transitive-uniqueness tests: four autonomous sources with one
// attribute pair each in common, so every link matches on a different
// extended key —
//
//	A(id, name, code)   ── name ──  B(id, name, phone)
//	   │ code                          │ phone
//	C(id, code, city)   ── city ──  D(id, phone, city)
func fourSourceHub(t *testing.T) *hub.Hub {
	t.Helper()
	h := hub.New()
	mk := func(name string, attrs ...string) {
		t.Helper()
		as := make([]schema.Attribute, len(attrs))
		for i, a := range attrs {
			as[i] = schema.Attribute{Name: a, Kind: value.KindString}
		}
		rel := relation.New(schema.MustNew(name, as, []string{"id"}))
		if err := h.AddSource(name, rel); err != nil {
			t.Fatal(err)
		}
	}
	mk("A", "id", "name", "code")
	mk("B", "id", "name", "phone")
	mk("C", "id", "code", "city")
	mk("D", "id", "phone", "city")
	link := func(left, right, shared string) {
		t.Helper()
		err := h.Link(hub.PairSpec{
			Left:  left,
			Right: right,
			Attrs: []match.AttrMap{
				{Name: shared, R: shared, S: shared},
				{Name: "id_" + left, R: "id", S: ""},
				{Name: "id_" + right, R: "", S: "id"},
			},
			ExtKey: []string{shared},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	link("A", "B", "name")
	link("A", "C", "code")
	link("B", "D", "phone")
	link("C", "D", "city")
	return h
}

func ins(t *testing.T, h *hub.Hub, source string, vals ...string) *hub.Receipt {
	t.Helper()
	tup := make(relation.Tuple, len(vals))
	for i, v := range vals {
		tup[i] = value.String(v)
	}
	rec, err := h.Insert(source, tup)
	if err != nil {
		t.Fatalf("insert %s %v: %v", source, vals, err)
	}
	return rec
}

func TestHubClustersAcrossPairs(t *testing.T) {
	h := fourSourceHub(t)
	ins(t, h, "A", "a0", "n1", "k1")
	rec := ins(t, h, "B", "b0", "n1", "p9")
	if len(rec.Matched) != 1 || rec.Matched[0].Source != "A" || rec.Matched[0].Index != 0 {
		t.Fatalf("b0 matched %v, want A/0", rec.Matched)
	}
	if got := len(rec.Cluster.Members); got != 2 {
		t.Fatalf("cluster size %d, want 2", got)
	}
	// d0 matches b0 on phone; the cluster becomes {a0, b0, d0}
	// transitively even though A and D share no link.
	rec = ins(t, h, "D", "d0", "p9", "mpls")
	if got := len(rec.Cluster.Members); got != 3 {
		t.Fatalf("cluster size %d, want 3", got)
	}
	cl, err := h.Lookup("A", value.String("a0"))
	if err != nil {
		t.Fatal(err)
	}
	var srcs []string
	for _, m := range cl.Members {
		srcs = append(srcs, fmt.Sprintf("%s/%d", m.Source, m.Index))
	}
	if got, want := strings.Join(srcs, ","), "A/0,B/0,D/0"; got != want {
		t.Fatalf("cluster members %q, want %q", got, want)
	}
	if cl.ID != "A/0" {
		t.Fatalf("cluster ID %q, want A/0", cl.ID)
	}
}

func TestHubRejectsTransitiveUniquenessViolationWithRollback(t *testing.T) {
	h := fourSourceHub(t)
	ins(t, h, "A", "a0", "n1", "k1")
	ins(t, h, "A", "a1", "n2", "k2")
	ins(t, h, "B", "b0", "n1", "p9")   // cluster {a0, b0} via name
	ins(t, h, "C", "c0", "k2", "mpls") // cluster {a1, c0} via code

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
	rec := ins(t, h, "D", "d1", "p7", "duluth")
	if len(rec.Matched) != 0 || len(rec.Cluster.Members) != 1 {
		t.Fatalf("benign insert after rejection: %+v", rec)
	}
}

func TestHubLinkFoldsSeededSources(t *testing.T) {
	// Sources seeded before Link: the initial matching tables fold into
	// clusters at link time.
	h := hub.New()
	mkSeed := func(name string, rows [][]string, attrs ...string) {
		as := make([]schema.Attribute, len(attrs))
		for i, a := range attrs {
			as[i] = schema.Attribute{Name: a, Kind: value.KindString}
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
	mkSeed("A", [][]string{{"a0", "n1"}, {"a1", "n2"}}, "id", "name")
	mkSeed("B", [][]string{{"b0", "n2"}}, "id", "name")
	err := h.Link(hub.PairSpec{
		Left: "A", Right: "B",
		Attrs: []match.AttrMap{
			{Name: "name", R: "name", S: "name"},
			{Name: "id_A", R: "id", S: ""},
			{Name: "id_B", R: "", S: "id"},
		},
		ExtKey: []string{"name"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := h.Lookup("B", value.String("b0"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Members) != 2 || cl.ID != "A/1" {
		t.Fatalf("seeded link cluster = %+v", cl)
	}
	if st := h.Stats(); st.Clusters != 2 {
		t.Fatalf("clusters = %d, want 2 ({a1,b0} and {a0})", st.Clusters)
	}
}

func TestHubMergedView(t *testing.T) {
	h := fourSourceHub(t)
	ins(t, h, "A", "a0", "n1", "k1")
	ins(t, h, "B", "b0", "n1", "p9")
	ins(t, h, "D", "d0", "p9", "mpls")
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

func TestHubPairwiseStateEqualsBatchBuild(t *testing.T) {
	// Differential acceptance check: after concurrent streaming ingest,
	// each link's live matching table equals batch match.Build on the
	// final relations.
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 3, Entities: 80, PresenceFrac: 0.6, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 7,
	})
	h, err := hub.NewFromMulti(w)
	if err != nil {
		t.Fatal(err)
	}
	items := hub.MultiInserts(w)
	for i, res := range h.IngestBatch(items) {
		if res.Err != nil {
			t.Fatalf("insert %d (%s): %v", i, items[i].Source, res.Err)
		}
	}
	for i := 0; i < len(w.Names); i++ {
		for j := i + 1; j < len(w.Names); j++ {
			mp := w.Pair(i, j)
			live, err := h.PairResult(mp.Left, mp.Right)
			if err != nil {
				t.Fatal(err)
			}
			r, err := h.SourceRelation(mp.Left)
			if err != nil {
				t.Fatal(err)
			}
			s, err := h.SourceRelation(mp.Right)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := match.Build(match.Config{
				R: r, S: s, Attrs: mp.Attrs, ExtKey: mp.ExtKey, ILFDs: mp.ILFDs,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := append([]match.Pair(nil), live.MT.Pairs...)
			wantPairs := append([]match.Pair(nil), batch.MT.Pairs...)
			sortPairs(got)
			sortPairs(wantPairs)
			if !reflect.DeepEqual(got, wantPairs) {
				t.Fatalf("pair %s-%s: live MT %v != batch MT %v", mp.Left, mp.Right, got, wantPairs)
			}
			if err := live.Verify(); err != nil {
				t.Fatalf("pair %s-%s: live state unsound: %v", mp.Left, mp.Right, err)
			}
		}
	}
}

func sortPairs(ps []match.Pair) {
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].RIndex != ps[b].RIndex {
			return ps[a].RIndex < ps[b].RIndex
		}
		return ps[a].SIndex < ps[b].SIndex
	})
}

func TestHubLinkRejectsTransitiveViolationFromSeededSources(t *testing.T) {
	// Link-time folding must apply the same transitive check as
	// inserts, counting the folded node's existing cluster: here the
	// first two links cluster {a0, b0, c0}, and the third link's
	// initial matching table pairs b0 with c1 — which would put c0 and
	// c1 of source C into one cluster.
	h := hub.New()
	mkSeed := func(name string, rows [][]string, attrs ...string) {
		t.Helper()
		as := make([]schema.Attribute, len(attrs))
		for i, a := range attrs {
			as[i] = schema.Attribute{Name: a, Kind: value.KindString}
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
	mkSeed("A", [][]string{{"a0", "n1", "k1"}}, "id", "name", "code")
	mkSeed("B", [][]string{{"b0", "n1", "p1"}}, "id", "name", "phone")
	mkSeed("C", [][]string{{"c0", "k1", "p9"}, {"c1", "k9", "p1"}}, "id", "code", "phone")
	link := func(left, right, shared string) error {
		return h.Link(hub.PairSpec{
			Left: left, Right: right,
			Attrs: []match.AttrMap{
				{Name: shared, R: shared, S: shared},
				{Name: "id_" + left, R: "id", S: ""},
				{Name: "id_" + right, R: "", S: "id"},
			},
			ExtKey: []string{shared},
		})
	}
	if err := link("A", "B", "name"); err != nil {
		t.Fatal(err)
	}
	if err := link("A", "C", "code"); err != nil {
		t.Fatal(err)
	}
	before := h.Stats()
	// Typed like an insert rejected for the same reason: one function
	// (store.CheckMerge) decides both.
	err := link("B", "C", "phone")
	if !errors.Is(err, store.ErrUniqueness) || !strings.Contains(err.Error(), "transitive uniqueness") {
		t.Fatalf("seeded link folding missed the violation, or left it untyped: %v", err)
	}
	if after := h.Stats(); !reflect.DeepEqual(before, after) {
		t.Fatalf("rejected link changed state: %+v -> %+v", before, after)
	}
	for _, c := range h.Clusters() {
		seen := map[string]bool{}
		for _, m := range c.Members {
			if seen[m.Source] {
				t.Fatalf("cluster %s holds two tuples of %s", c.ID, m.Source)
			}
			seen[m.Source] = true
		}
	}
}

func TestHubLinkValidation(t *testing.T) {
	h := fourSourceHub(t)
	if err := h.Link(hub.PairSpec{Left: "A", Right: "B"}); err == nil {
		t.Fatal("duplicate link accepted")
	}
	if err := h.Link(hub.PairSpec{Left: "A", Right: "A"}); err == nil {
		t.Fatal("self link accepted")
	}
	if err := h.Link(hub.PairSpec{Left: "A", Right: "nope"}); err == nil {
		t.Fatal("unknown source accepted")
	}
	// Conflicting integrated-name mapping: A-D link claiming "name" maps
	// to A's "code" clashes with the A-B link's name→name.
	err := h.Link(hub.PairSpec{
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
