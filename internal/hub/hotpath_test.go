package hub

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// twoSourceHub builds the smallest hub with a real cluster record:
// A/0 and B/0 matched on name.
func twoSourceHub(t *testing.T) *Hub {
	t.Helper()
	h := New()
	mk := func(name string) {
		t.Helper()
		attrs := []schema.Attribute{
			{Name: "id", Kind: value.KindString},
			{Name: "name", Kind: value.KindString},
		}
		if err := h.AddSource(name, relation.New(schema.MustNew(name, attrs, []string{"id"}))); err != nil {
			t.Fatal(err)
		}
	}
	mk("A")
	mk("B")
	err := h.Link(PairSpec{
		Left:  "A",
		Right: "B",
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
	for _, ins := range [][2]string{{"A", "a0"}, {"B", "b0"}} {
		if _, err := h.Insert(ins[0], relation.Tuple{value.String(ins[1]), value.String("n1")}); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// TestPointReadPathZeroAlloc pins the positional point-read path —
// topo snapshot, published view, cluster-record read — at zero
// allocations per probe. This is the machine check behind the
// //entitylint:hotpath annotations on the read path: the snapshot
// load, the view load and the mem backend's index probe must stay
// alloc-free so point reads never pressure the GC under load.
func TestPointReadPathZeroAlloc(t *testing.T) {
	h := twoSourceHub(t)
	bad := false
	avg := testing.AllocsPerRun(200, func() {
		tv := h.topo.Load()
		si, ok := tv.byName["A"]
		if !ok {
			bad = true
			return
		}
		src := tv.sources[si]
		if src.view.Load().rows.Len() == 0 {
			bad = true
			return
		}
		ms, err := h.clusters.Read(node{Src: si, Idx: 0})
		if err != nil || len(ms) != 2 {
			bad = true
		}
	})
	if bad {
		t.Fatal("point-read probe hit an unexpected state")
	}
	if avg != 0 {
		t.Fatalf("positional point read allocates %.1f times per probe, want 0", avg)
	}
}

// TestKeyedLookupAllocBound pins the keyed probe (LookupKey under the
// key read lock). The key is hashed and the candidate verified value by
// value — no key string is built — so the bound is what passing the key
// values costs, never O(tuples) or O(members).
func TestKeyedLookupAllocBound(t *testing.T) {
	h := twoSourceHub(t)
	key := []value.Value{value.String("a0")}
	bad := false
	avg := testing.AllocsPerRun(200, func() {
		tv := h.topo.Load()
		src := tv.sources[tv.byName["A"]]
		src.keyMu.RLock()
		idx := src.rel.LookupKey(key...)
		src.keyMu.RUnlock()
		if idx != 0 {
			bad = true
		}
	})
	if bad {
		t.Fatal("keyed probe missed tuple A/0")
	}
	if avg > 1 {
		t.Fatalf("keyed lookup allocates %.1f times per probe, want <= 1", avg)
	}
	t.Logf("keyed lookup: %.1f allocs per probe (bound 1)", avg)
}

// TestReadSideAllocBound holds the served read side — what a point
// read and an enumeration line cost before rendering — to the
// allocations their results need. A member is where it lies, its
// source's published rows and its row, so no read builds a value. A
// Lookup owns its cluster: it builds the member slice and the ID, and
// nothing else (its key probe hashes, and builds nothing); a slice of
// the members' values, as when a member carried its tuple, breaks its
// bound of 2. A walk lends its clusters: it cuts every ID and resume
// cursor from a block of its own, a few hundred IDs to a block, and pays
// once for the window with its cut, the closures, and the Members buffer
// it reuses. So its bound is a constant, the same over 4 clusters as
// over 2,048: an allocation per cluster — an ID of its own, a fresh
// Members slice, a slice of values — breaks it a thousand times over.
func TestReadSideAllocBound(t *testing.T) {
	h := twoSourceHub(t)
	for _, id := range []string{"a1", "a2", "a3"} {
		if _, err := h.Insert("A", relation.Tuple{value.String(id), value.Null}); err != nil {
			t.Fatal(err)
		}
	}
	key := []value.Value{value.String("a0")}
	bad := false
	avg := testing.AllocsPerRun(200, func() {
		c, err := h.Lookup("A", key...)
		if err != nil || c.ID != "A/0" || len(c.Members) != 2 {
			bad = true
		}
	})
	if bad {
		t.Fatal("Lookup missed cluster A/0")
	}
	if avg > 2 {
		t.Fatalf("Lookup allocates %.1f times, want <= 2", avg)
	}
	t.Logf("Lookup: %.1f allocs (bound 2)", avg)
	const walkBound = 6
	walk := func(clusters int) {
		t.Helper()
		avg = testing.AllocsPerRun(50, func() {
			n := 0
			err := h.ClustersWalk("", 0, func(c Cluster, resume string) bool {
				if resume != c.ID {
					bad = true
				}
				n++
				return true
			})
			if err != nil || n != clusters {
				bad = true
			}
		})
		if bad {
			t.Fatalf("walk did not visit the %d clusters with ID cursors", clusters)
		}
		if avg > walkBound {
			t.Fatalf("ClustersWalk allocates %.1f times over %d clusters, want <= %d", avg, clusters, walkBound)
		}
		t.Logf("ClustersWalk: %.1f allocs over %d clusters (bound %d)", avg, clusters, walkBound)
	}
	walk(4) // {A/0,B/0}, A/1, A/2, A/3
	kept, err := h.Lookup("A", key...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 2048; i++ {
		if _, err := h.Insert("A", relation.Tuple{value.String(fmt.Sprintf("a%d", i)), value.Null}); err != nil {
			t.Fatal(err)
		}
	}
	walk(2048)
	// A kept member lies in the view it was read from, which the inserts
	// since, across many blocks, did not write.
	if got := kept.Members[0].Tuple(); len(got) != 2 || got[0].Str() != "a0" || got[1].Str() != "n1" {
		t.Fatalf("member A/0 kept across 2,044 inserts reads %v", got)
	}
}

// TestInsertAllocBound holds one commit — a tuple extended once per
// image of its source and prepared against three linked pairs, the
// canonical insert, three pair commits, the cluster fold and the receipt
// — under an allocation ceiling of 11.50 on the exact mean (10.98
// measured, 11.16 under -race) that a commit which cloned the canonical
// tuple, one allocation of its own, rather than filing it into the
// relation's blocks (11.90), prepared each linked pair through a pending
// object of its own, kept on the heap beside the pair's matching result
// (14.90), extended the tuple once per linked pair into each pair's own
// image (19.25), locked each linked pair with a defer inside a loop
// (22.25: such a defer is never
// open-coded, so each pair lock cost one heap defer record per insert),
// counts the records it supersedes in a map per Publish, files its pair
// in two []int postings lists, builds a full-arity image per pair and a
// key string per index, or copies each image into R′/S′ under a second
// set of key strings and folds the cluster twice, cannot meet. The mean
// is taken from the allocation counter, not testing.AllocsPerRun, whose
// whole-number average rounds away a fraction. Memory hub, 4 sources
// fully linked, the benchmarks' workload; the first insert, which sizes
// the hub's indexes, is left out.
//
// Then five sources, shuffled, on a durable hub over the disk store with
// its default budgets: ten pairs, each resident for its life, under a
// ceiling of 14.50 (13.90 measured, 14.13 under -race; 14.81 with the
// tuple cloned, 18.81 with a pending object per pair, 24.82 with an
// image per pair side, 28.83 with the four pair locks' defer records). A
// hub that kept eight pairs resident and rebuilt a spilled federation —
// §4.2 over both relations — to page it back in before an insert could
// prepare against it read 553.0: uniform ingest touches every pair, so
// nearly every insert paged one in.
func TestInsertAllocBound(t *testing.T) {
	w := benchMulti(4)
	h, err := NewFromMulti(w)
	if err != nil {
		t.Fatal(err)
	}
	avg := insertAllocs(t, h, MultiInserts(w))
	const ceiling = 11.50
	if avg > ceiling {
		t.Fatalf("Insert allocates %.2f times per tuple, ceiling %.2f", avg, ceiling)
	}
	t.Logf("Insert: %.2f allocs per tuple over 4 sources (ceiling %.2f)", avg, ceiling)

	w = benchMulti(5)
	hd, _ := openMultiOpts(t, t.TempDir(), w, Options{Store: "disk"})
	defer hd.Close()
	items := MultiInserts(w)
	rand.New(rand.NewSource(5)).Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	avg = insertAllocs(t, hd, items)
	const diskCeiling = 14.50
	if avg > diskCeiling {
		t.Fatalf("Insert on the disk store allocates %.2f times per tuple over 5 sources, ceiling %.2f", avg, diskCeiling)
	}
	t.Logf("Insert: %.2f allocs per tuple over 5 sources on the disk store (ceiling %.2f)", avg, diskCeiling)
}

// insertAllocs inserts items into h one at a time and returns the mean
// allocations per insert, the first left out.
func insertAllocs(t *testing.T, h *Hub, items []Insert) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for i, it := range items {
		if i == 1 {
			runtime.ReadMemStats(&before)
		}
		if _, err := h.Insert(it.Source, it.Tuple); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(items)-1)
}

// TestOpenAllocBound holds one Open of openWorkload's directory — on
// the memory store, the relations filled, four images and six pairings
// built, the clusters folded — per restored tuple, from the allocation
// counters, in two legs. Each decoded tuple is parsed straight into
// flat cells (relation.TupleBlocks) laid out where its relation holds
// it, and the relation adopts the cell blocks and the string blocks the
// decoder filled, so neither a cell nor a string is copied but where a
// block straddles a segment's start.
//   - snapshot: every run read and decoded, no log tail. Ceilings 1,150
//     bytes and 3.75 allocations (578 and 3.38 measured; 660 and 3.40
//     while the relation copied each decoded row's cells; 724 and 3.37
//     while a relation kept the decoder's 32-byte value cells uncopied;
//     812 and 3.39 while a value block left the slack of its size class
//     unused). A loader that allocates each string alone
//     (835 and 7.28), extends and indexes each source once per pair it
//     sits in (1,097 and 10.81), or decodes each chunk through
//     encoding/json and copies every decoded tuple into its relation
//     (1,651 and 12.89), cannot meet them;
//   - log-only: no snapshot, the whole log read, the way
//     BenchmarkOpenReplay builds it. Ceilings 1,600 bytes and 3.75
//     allocations, the snapshot leg's margins over what it measures
//     (1,018 and 3.38; 1,083 and 3.40 while the relation copied each
//     decoded row's cells; 1,089 and 3.38 with 32-byte value cells;
//     1,155 and 3.40 with the slack unused). A reader that scans every frame at open and
//     again to replay it, copying each line, each decoded tuple and each
//     string alone (1,362 and 12.27), cannot meet them.
func TestOpenAllocBound(t *testing.T) {
	w := openWorkload()
	for _, leg := range []struct {
		name                        string
		snapshot                    bool
		bytesCeiling, allocsCeiling float64
	}{
		{"snapshot", true, 1150, 3.75},
		{"log-only", false, 1600, 3.75},
	} {
		t.Run(leg.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Store: "mem"}
			h, _ := openMultiOpts(t, dir, w, opts)
			for _, res := range h.IngestBatch(MultiInserts(w)) {
				if res.Err != nil {
					t.Fatal(res.Err)
				}
			}
			if leg.snapshot {
				if err := h.SnapshotNow(); err != nil {
					t.Fatal(err)
				}
			}
			records := int(h.per.log.LastSeq())
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			h, info, err := openOn(dir, opts)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			if leg.snapshot && (!info.FromSnapshot || info.Replayed != 0) {
				t.Fatalf("opened %+v, want the snapshot alone", info)
			}
			if !leg.snapshot && (info.FromSnapshot || info.Replayed != records) {
				t.Fatalf("opened %+v, want the log alone, %d records", info, records)
			}
			tuples := float64(h.Stats().Tuples)
			bytes, allocs := float64(after.TotalAlloc-before.TotalAlloc)/tuples, float64(after.Mallocs-before.Mallocs)/tuples
			if bytes > leg.bytesCeiling || allocs > leg.allocsCeiling {
				t.Fatalf("Open (%s) allocates %.0f B in %.2f allocations per restored tuple, ceilings %.0f B and %.2f",
					leg.name, bytes, allocs, leg.bytesCeiling, leg.allocsCeiling)
			}
			t.Logf("Open (%s): %.0f B in %.2f allocs per restored tuple over %.0f tuples (ceilings %.0f B, %.2f)",
				leg.name, bytes, allocs, tuples, leg.bytesCeiling, leg.allocsCeiling)
		})
	}
}
