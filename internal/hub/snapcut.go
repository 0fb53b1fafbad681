// Snapshot capture: the consistent cut and the per-sequence copy.
// A consistent cut is just the per-source tuple counts, per-pair
// matching-table lengths and the WAL watermark, taken in
// O(sources+pairs) under the commit locks; the relations and matching
// tables are append-only under those locks, so each sequence's content
// can be copied later, one sequence at a time, and only what lies past
// its sealed runs: the commit lock is held for a copy the size of the
// increment, never of the hub.
package hub

import (
	"entityid/internal/federate"
	"entityid/internal/match"
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
		cut.pairs = append(cut.pairs, cutPair{
			p: p, n: p.fed.MT().Len(), rlen: h.sources[p.left].rel.Len(), slen: h.sources[p.right].rel.Len(),
		})
	}
	return cut
}

// copyPairRange copies entries [lo, cp.n) of one pair's matching table
// in commit order — the order the runs are cut in — under a briefly-held
// commit lock: the table only grows, so its first n entries are exactly
// the cut's table.
func (h *Hub) copyPairRange(cp cutPair, lo int) []match.Pair {
	h.commitMu.Lock()
	defer h.commitMu.Unlock()
	return cp.p.fed.PairsRange(lo, cp.n)
}

// copyPairMT is the pair's whole table at the cut in the canonical
// sorted order — what CheckInvariants and the tests compare; a snapshot
// never pays for it.
func (h *Hub) copyPairMT(cp cutPair) []match.Pair {
	ps := h.copyPairRange(cp, 0)
	federate.SortPairs(ps)
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
// directory sink: per sequence, carry the sealed runs forward, capture
// what is past them under briefly-held locks, encode and write it, then
// commit the manifest. A source's tuples come from the published view —
// the view at the cut already covers cs.n and its prefix is immutable,
// so they are sliced, not copied, and take no lock at all.
func (h *Hub) writeSnapshotSections(cut *snapshotCut, sink *dirSink, budget int) (*snapManifest, error) {
	man := &snapManifest{V2: secManifest, Format: snapFormat, Watermark: cut.watermark, RunItems: sink.runItems}
	for _, cs := range cut.sources {
		src := snapSource{Name: cs.s.name, Schema: wal.EncodeSchema(cs.s.rel.Schema())}
		tuples := tupleItems(cs.s.view.Load().tuples)
		var err error
		src.Runs, err = sink.runs(src.id(), cs.n, budget, func(lo int) (chunkItems, error) {
			return tuples[lo:cs.n], nil
		})
		if err != nil {
			return nil, err
		}
		man.Sources = append(man.Sources, src)
	}
	for _, cp := range cut.pairs {
		pair := snapPair{Link: linkRecFromSpec(cp.p.spec), RLen: cp.rlen, SLen: cp.slen}
		var err error
		pair.Runs, err = sink.runs(pair.id(), cp.n, budget, func(lo int) (chunkItems, error) {
			return mtItems(h.copyPairRange(cp, lo)), nil
		})
		if err != nil {
			return nil, err
		}
		man.Pairs = append(man.Pairs, pair)
	}
	if err := sink.finish(man); err != nil {
		return nil, err
	}
	return man, nil
}
