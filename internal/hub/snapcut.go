// Snapshot capture: the consistent cut and the per-section copy.
// Capture is per-section under briefly-held locks. A consistent cut is
// just the per-source tuple counts, per-pair matching-table lengths and
// the WAL watermark, taken in O(sources+pairs) under the commit locks;
// the relations and matching tables are append-only under those locks,
// so each section's content can be copied later, one section at a time,
// holding the cluster lock only long enough to copy that section's
// slice headers. Commits never stall behind an O(hub) copy.
package hub

import (
	"fmt"
	"sort"

	"entityid/internal/federate"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/wal"
)

// cutSource is one source at the cut: the state pointer (stable — the
// topology only grows) and its tuple count.
type cutSource struct {
	s *sourceState
	n int
}

// cutPair is one pair at the cut: matching-table length and side
// lengths.
type cutPair struct {
	p          *pairState
	n          int
	rlen, slen int
}

// snapshotCut is a consistent cut of the hub: O(sources+pairs) counts
// plus the covered WAL watermark. Because every structure it points at
// is append-only under the commit locks, the cut pins the exact state
// at the watermark without copying any content.
type snapshotCut struct {
	watermark uint64
	sources   []cutSource
	pairs     []cutPair
}

// cutLocked builds a cut. Callers hold h.mu (at least shared) and
// h.commitMu — the commit locks — so the counts are mutually
// consistent and consistent with the watermark.
func (h *Hub) cutLocked(watermark uint64) *snapshotCut {
	cut := &snapshotCut{watermark: watermark}
	for _, s := range h.sources {
		cut.sources = append(cut.sources, cutSource{s: s, n: s.rel.Len()})
	}
	for _, p := range h.pairs {
		// p.mtLen is written under the commit lock (held here), so this
		// read is consistent without paging a cold pair in.
		cut.pairs = append(cut.pairs, cutPair{
			p: p, n: p.mtLen, rlen: h.sources[p.left].rel.Len(), slen: h.sources[p.right].rel.Len(),
		})
	}
	return cut
}

// copySourceTuples copies one source section's tuple headers from the
// published view — the view at the cut already covers cs.n and its
// prefix is immutable, so the copy takes no lock at all and commits
// never stall behind it.
func (h *Hub) copySourceTuples(cs cutSource) []relation.Tuple {
	v := cs.s.view.Load()
	out := make([]relation.Tuple, cs.n)
	copy(out, v.tuples[:cs.n])
	return out
}

// copyPairMT copies one pair section's matching-table prefix and sorts
// it canonically off-lock. A hot pair's prefix is read under a
// briefly-held commit lock; a cold pair's is read from the backend's
// pair store, whose spilled table is stored in commit order at a
// length ≥ the cut (the pair can only have been spilled at or after
// the cut was taken, and spilling requires the commit lock's ordering
// of mutations), so the length-n prefix is exactly the cut's table.
// The federation pointer loaded here may be spilled concurrently — the
// object itself is never mutated after the spill, so reading its
// frozen (≥ cut) state remains correct.
func (h *Hub) copyPairMT(cp cutPair) ([]match.Pair, error) {
	var ps []match.Pair
	if fed := cp.p.fed.Load(); fed != nil {
		h.commitMu.Lock()
		ps = fed.PairsPrefix(cp.n)
		h.commitMu.Unlock()
	} else {
		tab, err := h.backend.Pairs().Load(cp.p.id)
		if err != nil {
			return nil, fmt.Errorf("hub: snapshot pair %q-%q: %w", cp.p.spec.Left, cp.p.spec.Right, err)
		}
		if len(tab.Pairs) < cp.n {
			return nil, fmt.Errorf("hub: snapshot pair %q-%q: spilled table has %d pairs, cut expects %d",
				cp.p.spec.Left, cp.p.spec.Right, len(tab.Pairs), cp.n)
		}
		ps = append([]match.Pair(nil), tab.Pairs[:cp.n]...)
	}
	federate.SortPairs(ps)
	return ps, nil
}

// foldPartition refolds the cut's matching tables into the canonical
// non-singleton cluster partition — pure off-lock work that reproduces
// exactly what partitionLocked would have returned at the cut, by the
// invariant (verified on every load) that the live cluster store equals
// the transitive closure of the pairwise tables.
func foldPartition(cut *snapshotCut, mts [][]match.Pair) [][][2]int {
	cs := newClusterSet()
	for i, cp := range cut.pairs {
		for _, pr := range mts[i] {
			cs.union(node{Src: cp.p.left, Idx: pr.RIndex}, node{Src: cp.p.right, Idx: pr.SIndex})
		}
	}
	byRoot := map[node][]node{}
	for n := range cs.parent {
		root := cs.find(n)
		byRoot[root] = append(byRoot[root], n)
	}
	return canonicalPartition(byRoot)
}

// canonicalPartition renders non-singleton clusters canonically:
// members sorted by (source, index), clusters sorted by first member.
func canonicalPartition(byRoot map[node][]node) [][][2]int {
	var out [][][2]int
	for _, ns := range byRoot {
		if len(ns) < 2 {
			continue
		}
		sortNodes(ns)
		c := make([][2]int, len(ns))
		for i, n := range ns {
			c[i] = [2]int{n.Src, n.Idx}
		}
		out = append(out, c)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0][0] != out[b][0][0] {
			return out[a][0][0] < out[b][0][0]
		}
		return out[a][0][1] < out[b][0][1]
	})
	return out
}

// partitionLocked returns the canonical non-singleton cluster
// partition of the live store. Callers hold h.commitMu (and h.mu at
// least shared).
func (h *Hub) partitionLocked() ([][][2]int, error) {
	part, err := h.clusters.Partition()
	if err != nil {
		return nil, err
	}
	out := make([][][2]int, len(part))
	for i, ms := range part {
		c := make([][2]int, len(ms))
		for j, m := range ms {
			c[j] = [2]int{m.Src, m.Idx}
		}
		out[i] = c
	}
	return out, nil
}

// writeSnapshotSections drives a snapshot at the given cut through the
// directory sink: capture each section under briefly-held locks,
// encode, write (or carry forward), then commit the manifest.
func (h *Hub) writeSnapshotSections(cut *snapshotCut, sink *dirSink, budget int) (*snapManifest, error) {
	man := &snapManifest{V2: secManifest, Format: snapFormat, Watermark: cut.watermark}
	allCarried := true
	for i, cs := range cut.sources {
		meta := snapSection{Kind: secSource, Name: cs.s.name, Items: cs.n}
		if !sink.reuse(&meta) {
			allCarried = false
			sch := wal.EncodeSchema(cs.s.rel.Schema())
			body := &sectionBody{
				kind: secSource, sec: i, name: cs.s.name, schema: &sch,
				items: tupleItems(h.copySourceTuples(cs)),
			}
			if err := sink.write(&meta, body, budget); err != nil {
				return nil, err
			}
		}
		man.Sections = append(man.Sections, meta)
	}
	mts := make([][]match.Pair, len(cut.pairs))
	for i, cp := range cut.pairs {
		meta := snapSection{
			Kind: secPair, Left: cp.p.spec.Left, Right: cp.p.spec.Right,
			Items: cp.n, RLen: cp.rlen, SLen: cp.slen,
		}
		if !sink.reuse(&meta) {
			allCarried = false
			var err error
			if mts[i], err = h.copyPairMT(cp); err != nil {
				return nil, err
			}
			link := linkRecFromSpec(cp.p.spec)
			body := &sectionBody{
				kind: secPair, sec: len(man.Sections), link: &link,
				rlen: cp.rlen, slen: cp.slen, items: mtItems(mts[i]),
			}
			if err := sink.write(&meta, body, budget); err != nil {
				return nil, err
			}
		}
		man.Sections = append(man.Sections, meta)
	}
	// The cluster partition is a function of the matching tables and
	// side lengths, so it is unchanged exactly when every other section
	// was carried forward.
	clMeta := snapSection{Kind: secClusters}
	if !allCarried || !sink.reuse(&clMeta) {
		for i := range mts {
			if mts[i] == nil {
				var err error
				if mts[i], err = h.copyPairMT(cut.pairs[i]); err != nil {
					return nil, err
				}
			}
		}
		clusters := foldPartition(cut, mts)
		clMeta.Items = len(clusters)
		body := &sectionBody{kind: secClusters, sec: len(man.Sections), items: clusterItems(clusters)}
		if err := sink.write(&clMeta, body, budget); err != nil {
			return nil, err
		}
	}
	man.Sections = append(man.Sections, clMeta)
	if err := sink.finish(man); err != nil {
		return nil, err
	}
	return man, nil
}
