package hub_test

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/federate"
	"entityid/internal/hub"
	"entityid/internal/match"
	"entityid/internal/obs"
	"entityid/internal/relation"
	"entityid/internal/resolve"
	"entityid/internal/rules"
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
	link := func(left, right, shared string, distinct ...rules.DistinctnessRule) {
		t.Helper()
		err := h.Link(hub.PairSpec{
			Left:  left,
			Right: right,
			Attrs: []match.AttrMap{
				{Name: shared, R: shared, S: shared},
				{Name: "id_" + left, R: "id", S: ""},
				{Name: "id_" + right, R: "", S: "id"},
			},
			ExtKey:   []string{shared},
			Distinct: distinct,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Nobody with code "kx" is anybody with phone "px": the one
	// distinctness rule, there for the consistency guard's test.
	link("A", "B", "name", rules.MustNewDistinctness("kx-px", []rules.Predicate{
		{Left: rules.Attr1("code"), Op: rules.Eq, Right: rules.Const(value.String("kx"))},
		{Left: rules.Attr2("phone"), Op: rules.Eq, Right: rules.Const(value.String("px"))},
	}))
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
	ins(t, h, "A", "a0", "n1", "k1")
	ins(t, h, "B", "b0", "n1", "p1") // {a0, b0} via name
	ins(t, h, "A", "a1", "n2", "k2") // two A's named n2 while B has none
	ins(t, h, "A", "a2", "n2", "k3")
	ins(t, h, "A", "a3", "n3", "kx")
	ins(t, h, "A", "a4", "n4", "k4")
	ins(t, h, "D", "d0", "p4", "c1") // two D's on phone p4 while B has none
	ins(t, h, "D", "d1", "p4", "c2")

	type pairState struct {
		pairs      []match.Pair
		rLen, sLen int
	}
	links := [][2]string{{"A", "B"}, {"A", "C"}, {"B", "D"}, {"C", "D"}}
	snapshot := func() (hub.Stats, []pairState, []int) {
		t.Helper()
		var ps []pairState
		for _, l := range links {
			res, err := h.PairResult(l[0], l[1])
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, pairState{append([]match.Pair(nil), res.MT.Pairs...), res.RPrime.Len(), res.SPrime.Len()})
		}
		var lens []int
		for _, name := range []string{"A", "B", "C", "D"} {
			n, err := h.SourceLen(name)
			if err != nil {
				t.Fatal(err)
			}
			lens = append(lens, n)
		}
		return h.Stats(), ps, lens
	}
	for _, c := range []struct {
		tuple   []string
		guard   error
		text    string
		counted int
	}{
		{[]string{"b1", "n1", "p2"}, federate.ErrUniqueness, "uniqueness violation: R tuple 0 already matched to S tuple 0", 1},
		{[]string{"b1", "n2", "p2"}, federate.ErrUniqueness, "insert would match 2 tuples at once (unsound)", 1},
		{[]string{"b1", "n3", "px"}, federate.ErrConsistency, `distinctness rule "kx-px" forbids`, 0},
		// A-B prepares first and finds a4; B-D, prepared after it, rejects.
		{[]string{"b1", "n4", "p4"}, federate.ErrUniqueness, `source "B" vs "D": federate: insert would match 2 tuples at once (unsound)`, 1},
	} {
		stats, pairs, lens := snapshot()
		counter := uniquenessRejections(t)
		_, err := h.Insert("B", relation.Tuple{value.String(c.tuple[0]), value.String(c.tuple[1]), value.String(c.tuple[2])})
		if !errors.Is(err, c.guard) || !strings.Contains(err.Error(), c.text) {
			t.Fatalf("insert %v = %v, want %v with %q", c.tuple, err, c.guard, c.text)
		}
		if got := uniquenessRejections(t) - counter; got != c.counted {
			t.Fatalf("insert %v moved hub_uniqueness_rejections_total by %d, want %d", c.tuple, got, c.counted)
		}
		if s2, p2, l2 := snapshot(); s2 != stats || !reflect.DeepEqual(p2, pairs) || !reflect.DeepEqual(l2, lens) {
			t.Fatalf("insert %v, rejected, changed state:\n%+v %+v %v ->\n%+v %+v %v", c.tuple, stats, pairs, lens, s2, p2, l2)
		}
	}
	// The hub keeps serving, and the rejected tuples left no index entry
	// behind: b1 arrives at last and matches a4 alone.
	rec := ins(t, h, "B", "b1", "n4", "p5")
	if rec.Index != 1 || len(rec.Matched) != 1 || rec.Matched[0].Source != "A" || rec.Matched[0].Index != 4 {
		t.Fatalf("valid insert after the rejections: %+v", rec)
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
	namePhone, err := rules.KeyEquivalence("name-phone", []string{"name", "phone"})
	if err != nil {
		t.Fatal(err)
	}
	items := hub.MultiInserts(w)
	for _, tc := range []struct {
		name string
		// identity replaces the links' ILFDs: wherever a side lacks
		// cuisine the extended key then finds nothing, and the rule's
		// blocks carry the link alone.
		identity []rules.IdentityRule
		// durable opens the hub on the backend the CI leg selects (the
		// disk leg spills pairs, and every page-in rebuilds the probe's
		// index through federate.Restore) and crashes it mid-stream, so
		// recovery rebuilds the index too and then has to find the second
		// half's partners in it.
		durable bool
	}{
		{name: "extended key"},
		{name: "identity rule", identity: []rules.IdentityRule{namePhone}, durable: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := func(i, j int) hub.PairSpec {
				spec := hub.SpecFromMultiPair(w.Pair(i, j))
				if tc.identity != nil {
					spec.ILFDs, spec.Identity = nil, tc.identity
				}
				return spec
			}
			ingest := func(h *hub.Hub, items []hub.Insert) {
				t.Helper()
				for i, res := range h.IngestBatch(items) {
					if res.Err != nil {
						t.Fatalf("insert %d (%s): %v", i, items[i].Source, res.Err)
					}
				}
			}
			h, dir := hub.New(), t.TempDir()
			if tc.durable {
				if h, _, err = hub.Open(dir, hub.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			for k, name := range w.Names {
				if err := h.AddSource(name, relation.New(w.Relations[k].Schema())); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < len(w.Names); i++ {
				for j := i + 1; j < len(w.Names); j++ {
					if err := h.Link(spec(i, j)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tc.durable {
				ingest(h, items[:len(items)/2])
				if err := h.Close(); err != nil {
					t.Fatal(err)
				}
				if h, _, err = hub.Open(dir, hub.Options{}); err != nil {
					t.Fatal(err)
				}
				defer h.Close()
				ingest(h, items[len(items)/2:])
				if si := h.StoreInfo(); si.Backend == "disk" && si.Pairs.PageIns == 0 {
					t.Fatalf("the disk backend never paged a pair in: %+v", si.Pairs)
				}
			} else {
				ingest(h, items)
			}
			ruleOnly := 0
			for i := 0; i < len(w.Names); i++ {
				for j := i + 1; j < len(w.Names); j++ {
					spec := spec(i, j)
					live, err := h.PairResult(spec.Left, spec.Right)
					if err != nil {
						t.Fatal(err)
					}
					r, err := h.SourceRelation(spec.Left)
					if err != nil {
						t.Fatal(err)
					}
					s, err := h.SourceRelation(spec.Right)
					if err != nil {
						t.Fatal(err)
					}
					cfg := match.Config{
						R: r, S: s, Attrs: spec.Attrs, ExtKey: spec.ExtKey, ILFDs: spec.ILFDs, Identity: spec.Identity,
					}
					batch, err := match.Build(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := append([]match.Pair(nil), live.MT.Pairs...)
					sortPairs(got)
					if !reflect.DeepEqual(got, batch.MT.Pairs) {
						t.Fatalf("pair %s-%s: live MT %v != batch MT %v", spec.Left, spec.Right, got, batch.MT.Pairs)
					}
					if err := live.Verify(); err != nil {
						t.Fatalf("pair %s-%s: live state unsound: %v", spec.Left, spec.Right, err)
					}
					cfg.Identity = nil
					byKey, err := match.Build(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ruleOnly += batch.MT.Len() - byKey.MT.Len()
				}
			}
			if tc.identity != nil && ruleOnly == 0 {
				t.Fatal("no link matched anything through its identity rule alone")
			}
		})
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
