// The invariants of the served state that need no history — one
// stateless check, run by the simulator after every step, by the
// snapshot fuzzer on every hub it manages to load and by GET
// /debug/check. The two that need history (§3.3 matching-table
// monotonicity, "served view = some committed prefix") compare two
// states and live with the simulator (sim_test.go).
package hub

import (
	"fmt"

	"entityid/internal/match"
)

// CheckInvariants verifies, on a consistent cut of the hub:
//
//   - §3.2 uniqueness, pairwise: no tuple appears twice on its side of a
//     pair's matching table, and every entry lies inside both sides;
//   - §3.2 uniqueness, transitive: no cluster holds two tuples of one
//     source, and every member lies inside its source's published view;
//   - the served partition is the transitive closure of the pairwise
//     matching tables;
//   - each source's images, and so each pair's R′ and S′, are as long as
//     the relation they extend, and each source's published view is as
//     long as its canonical relation.
//
// What it does not compare is an extended image with its source tuple:
// R′ and S′ are views over the canonical relations (relation.NewImage) —
// row i is tuple i where it lies plus the cells the ILFDs derived, and
// relation.Adopt refuses a row that disagrees with a cell its tuple holds
// — so §4.2's "R′ extends R" (an image agrees with its source tuple
// wherever that tuple is not NULL; an ILFD may fill a NULL the source
// left in its own column) holds by construction, and position is what
// ties a row to the key it is found under: the lengths above.
//
// It returns the first violation, nil if there is none. It is O(hub) and
// on no request path but /debug/check: it holds h.mu shared and the
// commit lock while it takes the cut and reads the whole partition —
// commits wait that long — then releases both and copies each pair's
// table at the cut (the commit lock again, briefly, per pair).
func (h *Hub) CheckInvariants() error {
	h.mu.RLock()
	h.commitMu.Lock()
	cut := h.cutLocked(0)
	part, err := h.clusters.Partition()
	if err == nil {
		err = h.checkCopiesLocked(cut)
	}
	h.commitMu.Unlock()
	h.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("hub: invariant: %w", err)
	}
	for _, c := range part {
		seen := map[int]int{}
		for _, m := range c {
			if m.Src >= len(cut.sources) || m.Idx >= cut.sources[m.Src].n {
				return fmt.Errorf("hub: invariant: cluster member %d/%d lies outside its source's view", m.Src, m.Idx)
			}
			if prev, dup := seen[m.Src]; dup {
				return fmt.Errorf("hub: invariant: transitive uniqueness: tuples %d and %d of source %q share a cluster",
					prev, m.Idx, cut.sources[m.Src].s.name)
			}
			seen[m.Src] = m.Idx
		}
	}
	mts := make([]*match.Table, len(cut.pairs))
	for i, cp := range cut.pairs {
		ps := h.copyPairMT(cp)
		for _, pr := range ps {
			if pr.RIndex < 0 || pr.SIndex < 0 || pr.RIndex >= cp.rlen || pr.SIndex >= cp.slen {
				return fmt.Errorf("hub: invariant: pair %q-%q: entry (%d,%d) lies outside sides of %d and %d tuples",
					cp.p.spec.Left, cp.p.spec.Right, pr.RIndex, pr.SIndex, cp.rlen, cp.slen)
			}
		}
		// The copy's own table checks uniqueness as it is filled.
		if mts[i] = match.NewTable(nil, nil, ps...); mts[i].Uniqueness() != nil {
			return fmt.Errorf("hub: invariant: pair %q-%q: %w", cp.p.spec.Left, cp.p.spec.Right, mts[i].Uniqueness())
		}
	}
	folded, err := foldCut(cut, mts)
	if err != nil {
		return fmt.Errorf("hub: invariant: %w", err)
	}
	if !partitionsEqual(part, folded) {
		return fmt.Errorf("hub: invariant: served partition is not the transitive closure of the pairwise matching tables")
	}
	return nil
}

// checkCopiesLocked holds every length the hub keeps twice to its other
// copy. Callers hold h.mu shared and the commit lock.
func (h *Hub) checkCopiesLocked(cut *snapshotCut) error {
	for _, cs := range cut.sources {
		if got := cs.s.view.Load().rows.Len(); got != cs.n {
			return fmt.Errorf("source %q publishes %d tuples, its relation holds %d", cs.s.name, got, cs.n)
		}
		for k, im := range cs.s.images {
			if got := im.Relation().Len(); got != cs.n {
				return fmt.Errorf("source %q: image %d of %d tuples over a relation of %d", cs.s.name, k, got, cs.n)
			}
		}
	}
	for _, cp := range cut.pairs {
		res := cp.p.res
		if res.RPrime.Len() != cp.rlen || res.SPrime.Len() != cp.slen {
			return fmt.Errorf("pair %q-%q: images of %d and %d tuples over relations of %d and %d",
				cp.p.spec.Left, cp.p.spec.Right, res.RPrime.Len(), res.SPrime.Len(), cp.rlen, cp.slen)
		}
	}
	return nil
}
