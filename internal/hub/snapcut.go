// Snapshot capture: the consistent cut. A cut is just the per-source
// tuple counts, per-pair matching-table and side lengths and the WAL
// watermark, taken in O(sources+pairs) under the commit lock. A snapshot
// stores the sources alone — each pair by its link and the side lengths
// the cut saw — and the relations are append-only, so the writer encodes
// each source's prefix from its published view after the cut with no
// lock at all. The tables are read under the commit lock only by
// CheckInvariants, which compares them.
package hub

import (
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
// is append-only under the commit lock, the cut pins the exact state
// at the watermark without copying any content.
type snapshotCut struct {
	watermark uint64
	// past is the log's Past at the watermark.
	past    int64
	sources []cutSource
	pairs   []cutPair
}

// cutLocked builds a cut. Callers hold h.mu (at least shared) and
// h.commitMu, so the counts are mutually consistent and consistent with
// the watermark.
func (h *Hub) cutLocked(watermark uint64) *snapshotCut {
	cut := &snapshotCut{watermark: watermark}
	for _, s := range h.sources {
		cut.sources = append(cut.sources, cutSource{s: s, n: s.rel.Len()})
	}
	for _, p := range h.pairs {
		cut.pairs = append(cut.pairs, cutPair{
			p: p, n: p.res.MT.Len(), rlen: h.sources[p.left].rel.Len(), slen: h.sources[p.right].rel.Len(),
		})
	}
	return cut
}

// copyPairRange copies one pair's matching table at the cut in commit
// order under a briefly-held commit lock: the table only grows, so its
// first n entries are exactly the cut's table.
func (h *Hub) copyPairRange(cp cutPair) []match.Pair {
	h.commitMu.Lock()
	defer h.commitMu.Unlock()
	return cp.p.res.MT.Pairs(0, cp.n)
}

// copyPairMT is the pair's table at the cut in the canonical sorted order
// — what CheckInvariants and the tests compare.
func (h *Hub) copyPairMT(cp cutPair) []match.Pair {
	ps := h.copyPairRange(cp)
	match.SortPairs(ps)
	return ps
}

// foldCut folds the cut's matching tables, mts[i] the table of
// cut.pairs[i], with no store beneath: the partition the live cluster
// store must equal, by the invariant (verified on every load) that it is
// the transitive closure of the pairwise tables.
func foldCut(cut *snapshotCut, mts []*match.Table) ([][]node, error) {
	lens := make([]int, len(cut.sources))
	for i, cs := range cut.sources {
		lens[i] = cs.n
	}
	tables := make([]linkTable, len(cut.pairs))
	for i, cp := range cut.pairs {
		tables[i] = linkTable{left: cp.p.left, right: cp.p.right, mt: mts[i]}
	}
	folded, _, err := foldTables(lens, tables, nil, func(si int) string { return cut.sources[si].s.name })
	return folded, err
}

// writeSnapshotSections drives a snapshot at the given cut through the
// directory sink: carry the previous manifest's segments forward and
// write what is past them, then record each pair's link and side lengths
// and commit the manifest. A source's tuples come from the published
// view — the view at the cut already covers cs.n and its prefix is
// immutable, so they are sliced, not copied, and take no lock at all.
func (h *Hub) writeSnapshotSections(cut *snapshotCut, sink *dirSink, budget int) (*snapManifest, error) {
	man := &snapManifest{V2: secManifest, Format: snapFormat, Watermark: cut.watermark, SegItems: sink.segItems}
	tuples := make([]relation.Rows, len(cut.sources))
	for i, cs := range cut.sources {
		man.Sources = append(man.Sources, snapSource{Name: cs.s.name, Schema: wal.EncodeSchema(cs.s.rel.Schema())})
		tuples[i] = cs.s.view.Load().rows.Slice(0, cs.n)
	}
	var err error
	if man.Segments, err = sink.segments(man.Sources, tuples, budget); err != nil {
		return nil, err
	}
	for _, cp := range cut.pairs {
		man.Pairs = append(man.Pairs, snapPair{Link: linkRecFromSpec(cp.p.spec), RLen: cp.rlen, SLen: cp.slen})
	}
	if err := sink.finish(man); err != nil {
		return nil, err
	}
	return man, nil
}
