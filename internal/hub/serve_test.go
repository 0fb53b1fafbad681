package hub_test

// Serving-path tests for the sharded cluster store and the streaming
// enumeration: point reads racing ingest under -race must never return
// a torn cluster (every member set is a committed partition state —
// contains the queried tuple, at most one tuple per source, sorted,
// ID = smallest member, and a subset of the tuple's final cluster),
// and the paginated enumeration must reproduce Clusters() exactly on a
// quiescent hub for any page size.

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/hub"
	"entityid/internal/match"
	"entityid/internal/obs"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// checkClusterShape verifies the per-read invariants every served
// cluster must satisfy regardless of concurrent ingest, reporting
// failures via t.Errorf (it runs on reader goroutines, where FailNow
// must not be called) and returning false. ordinal maps source names
// to registration order.
func checkClusterShape(t *testing.T, c hub.Cluster, ordinal map[string]int) bool {
	t.Helper()
	if len(c.Members) == 0 {
		t.Errorf("cluster %s has no members", c.ID)
		return false
	}
	lead := c.Members[0]
	if want := fmt.Sprintf("%s/%d", lead.Source, lead.Index); c.ID != want {
		t.Errorf("cluster ID %s does not name its smallest member %s", c.ID, want)
		return false
	}
	seen := map[string]bool{}
	for i, m := range c.Members {
		if seen[m.Source] {
			t.Errorf("cluster %s holds two tuples of source %s", c.ID, m.Source)
			return false
		}
		seen[m.Source] = true
		if i > 0 {
			p := c.Members[i-1]
			if ordinal[p.Source] > ordinal[m.Source] ||
				(ordinal[p.Source] == ordinal[m.Source] && p.Index >= m.Index) {
				t.Errorf("cluster %s members out of order at %d", c.ID, i)
				return false
			}
		}
	}
	return true
}

// sample is one concurrent read's observed member set, resolved to
// stable (source, primary-key) identities for the post-ingest
// subset-of-final check.
type sample struct {
	keys []string
}

func TestConcurrentReadsDuringIngest(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 3, Entities: 150, PresenceFrac: 0.7, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 77,
	})
	h, err := hub.NewFromMulti(w)
	if err != nil {
		t.Fatal(err)
	}
	items := hub.MultiInserts(w)
	rand.New(rand.NewSource(77)).Shuffle(len(items), func(a, b int) {
		items[a], items[b] = items[b], items[a]
	})
	names := h.SourceNames()
	ordinal := map[string]int{}
	for i, n := range names {
		ordinal[n] = i
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	const readers = 4
	samples := make([][]sample, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			for i := 0; !done.Load(); i++ {
				src := names[rng.Intn(len(names))]
				n, err := h.SourceLen(src)
				if err != nil {
					t.Error(err)
					return
				}
				if n == 0 {
					continue
				}
				idx := rng.Intn(n)
				c, err := h.ClusterAt(src, idx)
				if err != nil {
					t.Errorf("ClusterAt(%s, %d) with len %d: %v", src, idx, n, err)
					return
				}
				found := false
				for _, m := range c.Members {
					if m.Source == src && m.Index == idx {
						found = true
					}
				}
				if !found {
					t.Errorf("cluster of %s/%d does not contain it: %v", src, idx, c.ID)
					return
				}
				if !checkClusterShape(t, c, ordinal) {
					return
				}
				if i%8 == 0 && len(samples[r]) < 4000 {
					s := sample{}
					for _, m := range c.Members {
						s.keys = append(s.keys, memberKey(m))
					}
					samples[r] = append(samples[r], s)
				}
				// Every ~64 reads, one full streaming enumeration: the
				// clusters of a single weakly consistent pass must be
				// pairwise disjoint committed states.
				if i%64 == 0 {
					inPass := map[string]string{}
					for c := range h.ClustersIter() {
						if !checkClusterShape(t, c, ordinal) {
							return
						}
						for _, m := range c.Members {
							k := memberKey(m)
							if prev, dup := inPass[k]; dup {
								t.Errorf("one enumeration emitted %s in clusters %s and %s", k, prev, c.ID)
								return
							}
							inPass[k] = c.ID
						}
					}
				}
			}
		}(r)
	}
	// Sub-batch with explicit yields: the batch path commits a
	// batch this small in a few milliseconds on one core, so without
	// yield points the reader goroutines would barely interleave with
	// ingest and the test could sample nothing.
	for off := 0; off < len(items); off += 32 {
		end := min(off+32, len(items))
		for i, res := range h.IngestBatch(items[off:end]) {
			if res.Err != nil {
				t.Fatalf("insert %d: %v", off+i, res.Err)
			}
		}
		runtime.Gosched()
	}
	done.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every concurrently observed member set must be contained in one
	// final cluster: reads only ever saw committed prefixes of the
	// monotone partition, never a torn in-between.
	finalOf := map[string]string{}
	finalSet := map[string]map[string]bool{}
	for _, c := range h.Clusters() {
		set := map[string]bool{}
		for _, m := range c.Members {
			k := memberKey(m)
			finalOf[k] = c.ID
			set[k] = true
		}
		finalSet[c.ID] = set
	}
	checked := 0
	for _, rs := range samples {
		for _, s := range rs {
			home, ok := finalOf[s.keys[0]]
			if !ok {
				t.Fatalf("observed member %s missing from the final partition", s.keys[0])
			}
			for _, k := range s.keys {
				if !finalSet[home][k] {
					t.Fatalf("observed cluster %v is not a subset of final cluster %s", s.keys, home)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no concurrent reads were sampled")
	}
}

func TestClustersPaginationQuiescent(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 3, Entities: 40, PresenceFrac: 0.7, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 5,
	})
	h, err := hub.NewFromMulti(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range h.IngestBatch(hub.MultiInserts(w)) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	want := h.Clusters()
	if len(want) == 0 {
		t.Fatal("empty reference enumeration")
	}
	for _, limit := range []int{1, 2, 3, 7, len(want), len(want) + 5} {
		var got []hub.Cluster
		cursor := ""
		pages := 0
		for {
			page, next, err := h.ClustersPage(cursor, limit)
			if err != nil {
				t.Fatalf("limit %d: %v", limit, err)
			}
			if len(page) > limit {
				t.Fatalf("limit %d: page of %d", limit, len(page))
			}
			got = append(got, page...)
			pages++
			if next == "" {
				break
			}
			if next != page[len(page)-1].ID {
				t.Fatalf("limit %d: cursor %s is not the last cluster %s", limit, next, page[len(page)-1].ID)
			}
			cursor = next
		}
		if len(got) != len(want) {
			t.Fatalf("limit %d: %d clusters across %d pages, want %d", limit, len(got), pages, len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || len(got[i].Members) != len(want[i].Members) {
				t.Fatalf("limit %d: cluster %d is %s (%d members), want %s (%d members)",
					limit, i, got[i].ID, len(got[i].Members), want[i].ID, len(want[i].Members))
			}
		}
	}

	// The streaming iterator stops when the consumer does.
	seen := 0
	for range h.ClustersIter() {
		seen++
		if seen == 2 {
			break
		}
	}
	if seen != 2 {
		t.Fatalf("early break saw %d clusters", seen)
	}

	// Cursor errors: malformed shapes and unknown sources are rejected.
	for _, cursor := range []string{
		"nope", "a/b/", w.Names[0] + "/x", w.Names[0] + "/-1", "ghost/0",
		// The maximum int would overflow the resume increment.
		w.Names[0] + "/9223372036854775807",
	} {
		if _, err := h.ClustersFrom(cursor); err == nil {
			t.Fatalf("cursor %q accepted", cursor)
		}
	}
	// A cursor past the end yields an empty final page.
	lastID := want[len(want)-1].ID
	page, next, err := h.ClustersPage(lastID, 10)
	if err != nil {
		t.Fatal(err)
	}
	if next != "" {
		t.Fatalf("page after the last cluster has next %q", next)
	}
	for _, c := range page {
		for _, pc := range want[:len(want)-1] {
			if c.ID == pc.ID {
				t.Fatalf("page after %s re-emitted %s", lastID, c.ID)
			}
		}
	}
}

// twoSourceHub builds a minimal hand-written topology for iterator
// regression tests: two string-keyed sources matched on name.
func twoSourceHub(t *testing.T, names ...string) *hub.Hub {
	t.Helper()
	h := hub.New()
	for _, n := range names {
		rel := relation.New(schema.MustNew(n, []schema.Attribute{
			{Name: "id", Kind: value.KindString},
			{Name: "name", Kind: value.KindString},
		}, []string{"id"}))
		if err := h.AddSource(n, rel); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			err := h.Link(hub.PairSpec{
				Left: names[i], Right: names[j],
				Attrs: []match.AttrMap{
					{Name: "name", R: "name", S: "name"},
					{Name: "id_" + names[i], R: "id"},
					{Name: "id_" + names[j], S: "id"},
				},
				ExtKey: []string{"name"},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return h
}

func mustInsert(t *testing.T, h *hub.Hub, src, id, name string) {
	t.Helper()
	if _, err := h.Insert(src, relation.Tuple{value.String(id), value.String(name)}); err != nil {
		t.Fatal(err)
	}
}

// TestIterEmitsMergesWithOutOfCutLead pins the in-cut-lead emission
// rule: a pre-cut tuple whose cluster gains, mid-walk, a lead node
// committed after the cut must still be enumerated (at its oldest
// in-cut member), not skipped toward a node the walk never visits.
func TestIterEmitsMergesWithOutOfCutLead(t *testing.T) {
	h := twoSourceHub(t, "a", "b")
	mustInsert(t, h, "a", "a0", "x")
	mustInsert(t, h, "b", "b0", "y")

	next, stop := iter.Pull(h.ClustersIter())
	defer stop()
	first, ok := next()
	if !ok || first.ID != "a/0" {
		t.Fatalf("first cluster %v %v", first.ID, ok)
	}
	// Mid-walk: a/1 (outside the cut) merges with the in-cut b/0.
	mustInsert(t, h, "a", "a1", "y")
	var ids []string
	sawB0 := false
	for {
		c, ok := next()
		if !ok {
			break
		}
		ids = append(ids, c.ID)
		for _, m := range c.Members {
			if m.Source == "b" && m.Index == 0 {
				sawB0 = true
				if len(c.Members) != 2 {
					t.Fatalf("b/0 emitted without its merge partner: %v", c)
				}
			}
		}
	}
	if !sawB0 {
		t.Fatalf("pre-cut tuple b/0 dropped from the enumeration (saw %v)", ids)
	}
}

// TestReadsSurviveTopologyGrowth pins the stale-topo upgrade in
// materialize: an iterator (and a point read) started before a source
// was registered must still materialise clusters that gained members
// of the new source, instead of indexing past its topology snapshot.
func TestReadsSurviveTopologyGrowth(t *testing.T) {
	h := twoSourceHub(t, "a", "b")
	mustInsert(t, h, "a", "a0", "x")

	next, stop := iter.Pull(h.ClustersIter())
	defer stop()
	// The walk is pinned before the topology grows.
	// Register source c after the cut and merge it into a/0's cluster.
	rel := relation.New(schema.MustNew("c", []schema.Attribute{
		{Name: "id", Kind: value.KindString},
		{Name: "name", Kind: value.KindString},
	}, []string{"id"}))
	if err := h.AddSource("c", rel); err != nil {
		t.Fatal(err)
	}
	err := h.Link(hub.PairSpec{
		Left: "a", Right: "c",
		Attrs: []match.AttrMap{
			{Name: "name", R: "name", S: "name"},
			{Name: "id_a", R: "id"},
			{Name: "id_c", S: "id"},
		},
		ExtKey: []string{"name"},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, h, "c", "c0", "x")

	c, ok := next()
	if !ok {
		t.Fatal("enumeration ended before a/0")
	}
	if c.ID != "a/0" || len(c.Members) != 2 || c.Members[1].Source != "c" {
		t.Fatalf("cluster across grown topology: %+v", c)
	}
	// The point-read path resolves through the same upgrade.
	pc, err := h.ClusterAt("a", 0)
	if err != nil || len(pc.Members) != 2 {
		t.Fatalf("ClusterAt after growth: %v %v", pc, err)
	}
}

// TestPageCursorTracksWalkPosition pins the pagination anchor: when a
// concurrent merge hands a cluster a lead outside the walk's cut, the
// cluster's ID names that (never-visited) lead, but the resume cursor
// must name the visit position — otherwise resuming would jump the
// walk backwards and re-serve clusters already emitted.
func TestPageCursorTracksWalkPosition(t *testing.T) {
	h := twoSourceHub(t, "a", "b")
	mustInsert(t, h, "a", "a0", "x")
	mustInsert(t, h, "b", "b0", "y")
	mustInsert(t, h, "b", "b1", "z")

	var ids, resumes []string
	err := h.ClustersWalk("", 0, func(c hub.Cluster, resume string) bool {
		ids = append(ids, c.ID)
		resumes = append(resumes, resume)
		if len(ids) == 1 {
			// Mid-walk: a/1 (outside the cut) merges with b/0.
			mustInsert(t, h, "a", "a1", "y")
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ids) != "[a/0 a/1 b/1]" {
		t.Fatalf("walk IDs %v", ids)
	}
	// The merged cluster's ID names the out-of-cut lead a/1, but its
	// resume cursor must be the visit node b/0.
	if fmt.Sprint(resumes) != "[a/0 b/0 b/1]" {
		t.Fatalf("walk resume cursors %v", resumes)
	}
	// Resuming from that cursor continues forward — no re-emission of
	// the a-source region.
	page, next, err := h.ClustersPage("b/0", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 1 || page[0].ID != "b/1" || next != "" {
		t.Fatalf("page after b/0: %d clusters, next %q", len(page), next)
	}
}

// TestMetricsScrapeDuringIngest hammers the process-wide registry's
// exposition while a batch commits through the worker pool: under
// -race this pins down that every metric the ingest path touches is
// scrape-safe, and that each scrape is internally consistent enough to
// parse (non-empty, newline-terminated, core families present).
func TestMetricsScrapeDuringIngest(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 3, Entities: 120, PresenceFrac: 0.7, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 31,
	})
	h, err := hub.NewFromMulti(w)
	if err != nil {
		t.Fatal(err)
	}
	items := hub.MultiInserts(w)

	var done atomic.Bool
	var wg sync.WaitGroup
	scrapes := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			var sb strings.Builder
			if err := obs.Default.WritePrometheus(&sb); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			text := sb.String()
			if text == "" || !strings.HasSuffix(text, "\n") {
				t.Errorf("scrape output malformed: %q...", text[:min(len(text), 80)])
				return
			}
			scrapes++
		}
	}()
	for off := 0; off < len(items); off += 32 {
		end := min(off+32, len(items))
		for i, res := range h.IngestBatch(items[off:end]) {
			if res.Err != nil {
				t.Fatalf("insert %d: %v", off+i, res.Err)
			}
		}
		runtime.Gosched()
	}
	done.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	if scrapes == 0 {
		t.Fatal("no scrapes ran during ingest")
	}
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, family := range []string{
		"hub_ingest_total", "hub_ingest_commit_seconds",
		"hub_ingest_stage_seconds", "hub_ingest_batch_size",
		"hub_health_state",
	} {
		if !strings.Contains(text, "# TYPE "+family+" ") {
			t.Errorf("core family %s missing from exposition", family)
		}
	}
	if !strings.Contains(text, `hub_ingest_total{outcome="ok"}`) {
		t.Error("no ok-outcome ingest sample after a committed batch")
	}
}
