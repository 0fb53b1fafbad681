package hub

// The read side. Point reads racing ingest never see a torn cluster, and
// a walk by cursor reproduces the walk in one pass: the simulator's
// readers and its check do both on every seed (sim_test.go), so the
// stress is one pinned schedule. The walk's behaviour when the hub moves
// under it — a merge whose lead is outside the cut, a cluster that gains
// a source registered after the walk began — needs a mutation at a
// chosen point inside the walk, which a schedule has no step for; those
// stay hand-written, on ClustersWalk.

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/match"
	"entityid/internal/obs"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// TestConcurrentReadsDuringIngest races four readers — point reads and
// whole walks — against four streams: every member set read holds the
// tuple asked for, is sorted with at most one tuple per source and led
// by its ID, every walk's clusters are disjoint, and all of it lies
// inside the final partition.
func TestConcurrentReadsDuringIngest(t *testing.T) {
	ws := multiWork(3, 150, 0.7, 77, 77)
	w := ws.build()
	parts := make([][]int, 4)
	for i := range w.items {
		parts[i%4] = append(parts[i%4], i)
	}
	for _, r := range runSchedule(t, schedule{work: ws, ops: append(setup(w), streams(0, 0, 4, parts...))}) {
		if r.sampled == 0 {
			t.Fatal("no concurrent reads were sampled")
		}
	}
}

// namedHub builds a memory-only hub of string-keyed (id, name) sources,
// every pair linked on name.
func namedHub(t testing.TB, names ...string) *Hub {
	t.Helper()
	h := New()
	for i, n := range names {
		addNamed(t, h, n, names[:i]...)
	}
	return h
}

// addNamed registers one more (id, name) source and links it to others.
func addNamed(t testing.TB, h *Hub, name string, others ...string) {
	t.Helper()
	rel := relation.New(schema.MustNew(name, []schema.Attribute{
		{Name: "id", Kind: value.KindString},
		{Name: "name", Kind: value.KindString},
	}, []string{"id"}))
	if err := h.AddSource(name, rel); err != nil {
		t.Fatal(err)
	}
	for _, o := range others {
		err := h.Link(PairSpec{
			Left: o, Right: name, ExtKey: []string{"name"},
			Attrs: []match.AttrMap{{Name: "name", R: "name", S: "name"}, {Name: "id_" + o, R: "id"}, {Name: "id_" + name, S: "id"}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func mustInsert(t testing.TB, h *Hub, src, id, name string) {
	t.Helper()
	if _, err := h.Insert(src, relation.Tuple{value.String(id), value.String(name)}); err != nil {
		t.Fatal(err)
	}
}

// TestClustersPaginationQuiescent: on a quiescent hub pages of any size
// concatenate to Clusters(), each page's cursor is its last cluster's
// ID, a stopped walk stops, a cursor past the end yields nothing, and
// malformed cursors are refused.
func TestClustersPaginationQuiescent(t *testing.T) {
	h := namedHub(t, "a", "b", "c")
	for i := 0; i < 40; i++ {
		mustInsert(t, h, string("abc"[i%3]), fmt.Sprintf("k%d", i), fmt.Sprintf("n%d", i/2))
	}
	want := h.Clusters()
	for _, limit := range []int{1, 2, 3, 7, len(want), len(want) + 5} {
		got, err := walkPages(h, limit) // holds every resume cursor to the last ID
		if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("pages of %d: %v\n%v\nwant %v", limit, err, got, want)
		}
	}
	seen := 0
	if err := h.ClustersWalk("", 3, func(Cluster, string) bool { seen++; return seen < 2 }); err != nil || seen != 2 {
		t.Fatalf("a walk told to stop at 2 saw %d clusters (%v)", seen, err)
	}
	if err := h.ClustersWalk(want[len(want)-1].ID, 0, func(c Cluster, _ string) bool {
		t.Errorf("walk after the last cluster served %s", c.ID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// The maximum int would overflow the resume increment.
	for _, cursor := range []string{"nope", "a/b/", "a/x", "a/-1", "ghost/0", "a/9223372036854775807"} {
		if err := h.ClustersWalk(cursor, 0, func(Cluster, string) bool { return true }); err == nil {
			t.Fatalf("cursor %q accepted", cursor)
		}
	}
}

// TestIterEmitsMergesWithOutOfCutLead pins the in-cut-lead emission
// rule: a pre-cut tuple whose cluster gains, mid-walk, a lead node
// committed after the cut must still be enumerated (at its oldest
// in-cut member), not skipped toward a node the walk never visits.
func TestIterEmitsMergesWithOutOfCutLead(t *testing.T) {
	h := namedHub(t, "a", "b")
	mustInsert(t, h, "a", "a0", "x")
	mustInsert(t, h, "b", "b0", "y")
	var ids []string
	sawB0 := false
	err := h.ClustersWalk("", 0, func(c Cluster, _ string) bool {
		if len(ids) == 0 {
			mustInsert(t, h, "a", "a1", "y") // outside the cut; merges with the in-cut b/0
		}
		ids = append(ids, c.ID)
		for _, m := range c.Members {
			sawB0 = sawB0 || (m.Source == "b" && m.Index == 0 && len(c.Members) == 2)
		}
		return true
	})
	if err != nil || !sawB0 {
		t.Fatalf("pre-cut tuple b/0 not served with its merge partner (saw %v, %v)", ids, err)
	}
}

// TestReadsSurviveTopologyGrowth pins the stale-topo upgrade in
// materialize: a walk (and a point read) begun before a source was
// registered must still materialise clusters that gained members of the
// new source, instead of indexing past its topology snapshot.
func TestReadsSurviveTopologyGrowth(t *testing.T) {
	h := namedHub(t, "a", "b")
	mustInsert(t, h, "a", "a0", "x")
	mustInsert(t, h, "a", "a1", "y")
	var second Cluster
	err := h.ClustersWalk("", 0, func(c Cluster, _ string) bool {
		if c.ID == "a/0" { // the walk's topology is pinned: grow it, and a/1's cluster with it
			addNamed(t, h, "c", "a")
			mustInsert(t, h, "c", "c0", "y")
		}
		second = c
		second.Members = slices.Clone(c.Members) // kept past the callback
		return true
	})
	if err != nil || second.ID != "a/1" || len(second.Members) != 2 || second.Members[1].Source != "c" {
		t.Fatalf("cluster across grown topology: %+v (%v)", second, err)
	}
	if pc, err := h.ClusterAt("a", 1); err != nil || len(pc.Members) != 2 {
		t.Fatalf("ClusterAt after growth: %v %v", pc, err)
	}
}

// TestPageCursorTracksWalkPosition pins the pagination anchor: when a
// concurrent merge hands a cluster a lead outside the walk's cut, the
// cluster's ID names that (never-visited) lead, but the resume cursor
// must name the visit position — otherwise resuming would jump the
// walk backwards and re-serve clusters already emitted.
func TestPageCursorTracksWalkPosition(t *testing.T) {
	h := namedHub(t, "a", "b")
	mustInsert(t, h, "a", "a0", "x")
	mustInsert(t, h, "b", "b0", "y")
	mustInsert(t, h, "b", "b1", "z")
	var ids, resumes []string
	err := h.ClustersWalk("", 0, func(c Cluster, resume string) bool {
		if len(ids) == 0 {
			mustInsert(t, h, "a", "a1", "y") // outside the cut; merges with b/0
		}
		ids, resumes = append(ids, c.ID), append(resumes, resume)
		return true
	})
	// The merged cluster's ID names the out-of-cut lead a/1, its resume
	// cursor the visit node b/0.
	if err != nil || fmt.Sprint(ids) != "[a/0 a/1 b/1]" || fmt.Sprint(resumes) != "[a/0 b/0 b/1]" {
		t.Fatalf("walk IDs %v, resume cursors %v (%v)", ids, resumes, err)
	}
	// Resuming there continues forward: the a region is not served again.
	var after []string
	if err := h.ClustersWalk("b/0", 0, func(c Cluster, _ string) bool { after = append(after, c.ID); return true }); err != nil || fmt.Sprint(after) != "[b/1]" {
		t.Fatalf("walk after b/0: %v (%v)", after, err)
	}
}

// coldWalkHub is a quiescent disk-backed hub whose hot tier holds at
// most a sixth of the members of its multi-member clusters, which it
// counts.
func coldWalkHub(t *testing.T) (h *Hub, multi int) {
	t.Helper()
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 3, Entities: 120, PresenceFrac: 0.7, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 5,
	})
	const budget = 24
	h, _ = openMultiOpts(t, t.TempDir(), w, Options{Store: "disk", HotClusterEntries: budget, hotPairs: 1})
	t.Cleanup(func() { h.Close() })
	for _, res := range h.IngestBatch(MultiInserts(w)) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	entries := 0
	for _, c := range h.Clusters() {
		if len(c.Members) > 1 {
			multi++
			entries += len(c.Members)
		}
	}
	if entries < 6*budget {
		t.Fatalf("%d clustered members against a hot tier of %d (want >= 6x); grow the workload", entries, budget)
	}
	return h, multi
}

// TestWalkPagesEachColdClusterInOnce: a full walk of a quiescent hub
// reads one body per cold multi-member cluster — not one per member —
// and a walk that skips past every cluster reads none; neither moves a
// record between the tiers. The two logged lines are what CI prints.
func TestWalkPagesEachColdClusterInOnce(t *testing.T) {
	h, multi := coldWalkHub(t)
	before := h.clusters.Stats()
	walked := 0
	if err := h.ClustersWalk("", 0, func(Cluster, string) bool { walked++; return true }); err != nil {
		t.Fatal(err)
	}
	full := h.clusters.Stats()
	pageIns := full.PageIns - before.PageIns
	t.Logf("full walk: %d page-ins over %d multi-member clusters, %d of them cold: %.2f per multi-member cluster (bound 1)",
		pageIns, multi, before.ColdRecords, float64(pageIns)/float64(multi))
	if before.ColdRecords == 0 || pageIns != int64(before.ColdRecords) {
		t.Fatalf("a full walk paged in %d bodies, want one per cold cluster: %d", pageIns, before.ColdRecords)
	}
	if err := h.ClustersWalk("", walked+1, func(c Cluster, _ string) bool {
		t.Errorf("a walk skipping %d of %d clusters served %s", walked+1, walked, c.ID)
		return false
	}); err != nil {
		t.Fatal(err)
	}
	skipped := h.clusters.Stats()
	t.Logf("skipped walk: %d page-ins over %d clusters counted past (bound 0)", skipped.PageIns-full.PageIns, walked)
	if skipped.PageIns != full.PageIns {
		t.Fatalf("a walk that only counts paged in %d bodies", skipped.PageIns-full.PageIns)
	}
	if skipped.HotRecords != before.HotRecords || skipped.HotEntries != before.HotEntries || skipped.ColdRecords != before.ColdRecords {
		t.Fatalf("the walks moved records between the tiers: %+v, was %+v", skipped, before)
	}
}

// TestWalkLeavesHotSetAlone: point reads that the hot tier serves before
// a walk, it serves after it — a scan does not flush what the readers
// were using.
func TestWalkLeavesHotSetAlone(t *testing.T) {
	h, _ := coldWalkHub(t)
	name := h.SourceNames()[0]
	pointReads := func() (hot, cold int64) {
		before := h.clusters.Stats()
		for i := 0; i < 8; i++ { // at most 8 x 3 members: they fit the tier together
			if _, err := h.ClusterAt(name, i); err != nil {
				t.Fatal(err)
			}
		}
		after := h.clusters.Stats()
		return after.Hits - before.Hits, after.Misses - before.Misses
	}
	pointReads() // page the set in
	hot, cold := pointReads()
	if hot == 0 || cold != 0 {
		t.Fatalf("the warmed-up reads split %d hot, %d cold; want all hot", hot, cold)
	}
	if err := h.ClustersWalk("", 0, func(Cluster, string) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if hot2, cold2 := pointReads(); hot2 != hot || cold2 != cold {
		t.Fatalf("after a walk the same reads split %d hot, %d cold; before it %d, %d", hot2, cold2, hot, cold)
	}
}

// TestMetricsScrapeDuringIngest hammers the process-wide registry's
// exposition while batches commit: under -race this pins that every
// metric the ingest path touches is scrape-safe, and afterwards that
// the core families are there under the names dashboards use.
func TestMetricsScrapeDuringIngest(t *testing.T) {
	h := namedHub(t, "a", "b")
	var done atomic.Bool
	var wg sync.WaitGroup
	var scrapes atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			var sb strings.Builder
			if err := obs.Default.WritePrometheus(&sb); err != nil || !strings.HasSuffix(sb.String(), "\n") {
				t.Errorf("scrape: %v, %d bytes", err, sb.Len())
				return
			}
			scrapes.Add(1)
		}
	}()
	for off := 0; off < 320 || scrapes.Load() == 0; off += 32 {
		items := make([]Insert, 32)
		for i := range items {
			id := fmt.Sprint(off + i)
			items[i] = Insert{Source: string("ab"[i%2]), Tuple: relation.Tuple{value.String(id), value.String("n" + id)}}
		}
		for i, res := range h.IngestBatch(items) {
			if res.Err != nil {
				t.Fatalf("insert %d: %v", off+i, res.Err)
			}
		}
		runtime.Gosched()
	}
	done.Store(true)
	wg.Wait()
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"hub_ingest_total", "hub_ingest_commit_seconds", "hub_ingest_stage_seconds", "hub_ingest_batch_size", "hub_health_state",
	} {
		if !strings.Contains(sb.String(), "# TYPE "+family+" ") {
			t.Errorf("core family %s missing from exposition", family)
		}
	}
	if !strings.Contains(sb.String(), `hub_ingest_total{outcome="ok"}`) {
		t.Error("no ok-outcome ingest sample after a committed batch")
	}
}
