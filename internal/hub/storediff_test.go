package hub

// Randomized differential harness for the storage backends: the same
// workload — source registration, links, shuffled ingest with planted
// rejects, snapshots, a crash, recovery — is driven through a
// memory-backed hub and a disk-backed hub whose hot tiers are squeezed
// far below the working set, and every served surface must be
// bit-for-bit identical: the full cluster partition, per-pair matching
// tables, canonical relations, point reads, and pagination at several
// page sizes. The memory backend is the executable specification; the
// disk backend must be indistinguishable through the public surface.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/match"
	"entityid/internal/relation"
)

// hubState is everything two hubs must agree on to be the same hub.
type hubState struct {
	clusters []Cluster
	pairs    map[string][]match.Pair
	rels     map[string][]relation.Tuple
}

// stateOf captures a quiescent hub's full observable state. It is the
// hub-against-hub comparison — this file's differential, replay's
// prefix runs, a snapshot's round trip; what a hub should hold in the
// first place is the model's business (model_test.go).
func stateOf(h *Hub) hubState {
	st := hubState{clusters: h.Clusters(), pairs: map[string][]match.Pair{}, rels: map[string][]relation.Tuple{}}
	for _, p := range h.pairs {
		mt, err := h.copyPairMT(cutPair{p: p, n: p.mtLen})
		if err != nil {
			panic(err)
		}
		st.pairs[p.spec.Left+"|"+p.spec.Right] = mt
	}
	for _, s := range h.sources {
		st.rels[s.name] = append([]relation.Tuple(nil), s.rel.Tuples()...)
	}
	return st
}

// mustEqualState asserts bit-for-bit equality: clusters (IDs, members,
// positions, tuples), sorted matching tables, and canonical relations
// position by position.
func mustEqualState(t *testing.T, label string, got, want hubState) {
	t.Helper()
	if !reflect.DeepEqual(got.clusters, want.clusters) {
		t.Fatalf("%s: clusters differ:\ngot  %d clusters %v\nwant %d clusters %v",
			label, len(got.clusters), got.clusters, len(want.clusters), want.clusters)
	}
	if !reflect.DeepEqual(got.pairs, want.pairs) {
		t.Fatalf("%s: matching tables differ:\ngot  %v\nwant %v", label, got.pairs, want.pairs)
	}
	if !reflect.DeepEqual(got.rels, want.rels) {
		t.Fatalf("%s: canonical relations differ", label)
	}
}

// diffWorkload generates the K-source workload the differential tests
// share.
func diffWorkload(seed int64) *datagen.MultiWorkload {
	return datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 4, Entities: 50, PresenceFrac: 0.6, HomonymRate: 0.25,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: seed,
	})
}

// openBackend opens (or reopens) a hub over the workload's topology on
// the named backend, the disk tiers squeezed — a handful of resident
// cluster members, one resident pair — so reads and snapshots constantly
// page cold state back in.
func openBackend(t *testing.T, dir, backend string, w *datagen.MultiWorkload) *Hub {
	t.Helper()
	h, _ := openMultiOpts(t, dir, w, Options{SnapshotEvery: 40, Store: backend, HotClusterEntries: 16, HotPairs: 1})
	return h
}

// mustEqualServed compares every served surface of the two hubs:
// the full observable state, point reads for every committed tuple,
// and pagination at several page sizes.
func mustEqualServed(t *testing.T, label string, hm, hd *Hub) {
	t.Helper()
	mustEqualState(t, label, stateOf(hd), stateOf(hm))

	// Point reads: every (source, index) must serve the same cluster.
	for _, s := range hm.sources {
		for i := 0; i < s.rel.Len(); i++ {
			cm, err := hm.ClusterAt(s.name, i)
			if err != nil {
				t.Fatalf("%s: mem ClusterAt(%s,%d): %v", label, s.name, i, err)
			}
			cd, err := hd.ClusterAt(s.name, i)
			if err != nil {
				t.Fatalf("%s: disk ClusterAt(%s,%d): %v", label, s.name, i, err)
			}
			if !reflect.DeepEqual(cm, cd) {
				t.Fatalf("%s: ClusterAt(%s,%d) diverges:\nmem:  %+v\ndisk: %+v", label, s.name, i, cm, cd)
			}
		}
	}

	// Pagination: identical pages and order at any page size.
	for _, limit := range []int{1, 3, 7, 0} {
		pm, errM := walkPages(hm, limit)
		pd, errD := walkPages(hd, limit)
		if errM != nil || errD != nil || !reflect.DeepEqual(pm, pd) {
			t.Fatalf("%s: pages of %d diverge: mem %d clusters (%v), disk %d clusters (%v)", label, limit, len(pm), errM, len(pd), errD)
		}
	}
}

// TestStoreDifferentialMemVsDisk drives the same randomized workload
// through both backends and demands indistinguishable served state at
// a mid-stream checkpoint, at quiescence, and again after a crash and
// recovery of both.
func TestStoreDifferentialMemVsDisk(t *testing.T) {
	for _, seed := range []int64{7, 19} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			w := diffWorkload(seed)
			hm, hd := openBackend(t, t.TempDir(), "mem", w), openBackend(t, t.TempDir(), "disk", w)

			items := MultiInserts(w)
			rand.New(rand.NewSource(seed)).Shuffle(len(items), func(a, b int) {
				items[a], items[b] = items[b], items[a]
			})
			insertBoth := func(label string, batch []Insert) {
				t.Helper()
				for i, it := range batch {
					_, errM := hm.Insert(it.Source, it.Tuple)
					_, errD := hd.Insert(it.Source, it.Tuple)
					if (errM == nil) != (errD == nil) {
						t.Fatalf("%s insert %d: outcomes diverge: mem %v, disk %v", label, i, errM, errD)
					}
				}
			}

			half := len(items) / 2
			insertBoth("first-half", items[:half])
			// Planted rejects: re-inserting committed tuples violates
			// per-source uniqueness identically on both backends.
			insertBoth("dup-replay", items[:min(10, half)])
			mustEqualServed(t, "mid-stream", hm, hd)

			insertBoth("second-half", items[half:])
			if err := hm.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			if err := hd.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			mustEqualServed(t, "quiescent", hm, hd)

			// The disk hub must actually have exercised its tiers, or
			// the test proves nothing.
			si := hd.StoreInfo()
			if si.Backend != "disk" {
				t.Fatalf("disk hub backend = %q", si.Backend)
			}
			if si.Clusters.Spills == 0 || si.Clusters.PageIns == 0 {
				t.Fatalf("disk hub never spilled/paged clusters: %+v", si.Clusters)
			}
			if si.Pairs.Spilled == 0 && si.Pairs.Spills == 0 {
				t.Fatalf("disk hub never spilled a pair: %+v", si.Pairs)
			}

			// Crash both (background work drained, flock dropped, spill
			// tier abandoned) and recover: the disk backend's cold tier
			// is a cache, so recovery must reproduce everything from the
			// WAL and snapshots alone.
			dirM, dirD := hm.snap.dir, hd.snap.dir
			hm.quiesce()
			hd.quiesce()
			hm, hd = openBackend(t, dirM, "mem", w), openBackend(t, dirD, "disk", w)
			defer hm.Close()
			defer hd.Close()
			mustEqualServed(t, "recovered", hm, hd)
		})
	}
}

// TestDiskStoreBoundedResidency holds the disk backend to its budget
// under a working set several times larger than the hot tier: resident
// cluster entries never exceed the budget at quiescence, a substantial
// cold tier exists, and the served partition still matches a
// memory-backed reference.
func TestDiskStoreBoundedResidency(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 3, Entities: 120, PresenceFrac: 0.7, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 5,
	})
	const budget = 24
	hd, _ := openMultiOpts(t, t.TempDir(), w, Options{Store: "disk", HotClusterEntries: budget, HotPairs: 1})
	defer hd.Close()
	hr, err := NewFromMulti(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range hd.IngestBatch(MultiInserts(w)) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	for _, res := range hr.IngestBatch(MultiInserts(w)) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}

	st := hd.clusters.Stats()
	if st.HotEntries > budget {
		t.Fatalf("hot tier over budget at quiescence: %d resident entries, budget %d", st.HotEntries, budget)
	}
	var entries int
	for _, c := range hd.Clusters() {
		entries += len(c.Members)
	}
	if entries < 4*budget {
		t.Fatalf("working set too small to prove anything: %d member entries vs budget %d (want >= 4x); grow the workload", entries, budget)
	}
	total := st.HotRecords + st.ColdRecords
	if st.ColdRecords*4 < total*3 {
		t.Fatalf("working set does not dwarf the hot tier: %d cold of %d records (want >= 3/4 cold); grow the workload",
			st.ColdRecords, total)
	}
	mustEqualState(t, "bounded-residency", stateOf(hd), stateOf(hr))
}
