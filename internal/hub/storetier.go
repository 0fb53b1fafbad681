// The hub side of the storage tiers: paging spilled pairwise
// federations back in before mutation, spilling the least-recently
// used ones back out after commits, and surfacing tier occupancy for
// /readyz and benchmarks.
//
// A pair is "hot" while pairState.fed holds a live federation and
// "cold" while fed is nil and the pair's exported state lives in the
// backend's pair store. The invariant the whole lifecycle rests on:
// a cold pair's side relations are frozen at the lengths it was
// spilled with, because every mutation of either side pages the pair
// in first (insert takes the pair lock and calls pairFedLocked before
// preparing). Page-in therefore always restores against exactly the
// lengths federate.Restore verifies, and the rebuilt matching table is
// re-verified pair by pair — a page-in is a free integrity check. It
// rebuilds over the canonical relations themselves (federations borrow
// them), so a page-in allocates the pair's derived state and no second
// copy of either side's tuples.
//
// Spill stores the matching table in COMMIT ORDER (ExportOrdered), not
// sorted: snapshot cuts read "the first n commits" of a pair, and a
// commit-order table serves any earlier cut as a plain prefix even if
// the spill happened after the cut was taken.
package hub

import (
	"fmt"
	"sort"

	"entityid/internal/federate"
	"entityid/internal/store"
)

// pairFedLocked returns p's live federation, paging it in from the
// backend's pair store if it is spilled. Callers hold p.mu and at
// least h.mu shared (matchConfig reads the topology).
func (h *Hub) pairFedLocked(p *pairState) (*federate.Federation, error) {
	if fed := p.fed.Load(); fed != nil {
		return fed, nil
	}
	tab, err := h.backend.Pairs().Load(p.id)
	if err != nil {
		return nil, fmt.Errorf("pair %q-%q page-in: %w", p.spec.Left, p.spec.Right, err)
	}
	fed, err := federate.Restore(h.matchConfig(p.left, p.right, p.spec), tab)
	if err != nil {
		return nil, fmt.Errorf("pair %q-%q page-in: %w", p.spec.Left, p.spec.Right, err)
	}
	p.fed.Store(fed)
	h.hotPairs.Add(1)
	return fed, nil
}

// maybeSpillPairs spills least-recently-used pairs until the resident
// count fits the backend's hot-pair budget. Called with no hub locks
// held (it takes h.mu shared and individual pair locks, never a source
// lock or the commit lock, so it cannot deadlock against the insert
// order). A spill failure leaves the pair resident and stops the pass
// — the tier runs over budget rather than losing state.
func (h *Hub) maybeSpillPairs() {
	budget := h.caps.HotPairs
	if budget <= 0 || int(h.hotPairs.Load()) <= budget {
		return
	}
	h.spillMu.Lock()
	defer h.spillMu.Unlock()
	h.mu.RLock()
	cands := append([]*pairState(nil), h.pairs...)
	h.mu.RUnlock()
	sort.Slice(cands, func(a, b int) bool {
		return cands[a].lastUse.Load() < cands[b].lastUse.Load()
	})
	for _, p := range cands {
		if int(h.hotPairs.Load()) <= budget {
			return
		}
		p.mu.Lock()
		if fed := p.fed.Load(); fed != nil {
			if err := h.backend.Pairs().Save(p.id, fed.ExportOrdered()); err != nil {
				p.mu.Unlock()
				return
			}
			p.fed.Store(nil)
			h.hotPairs.Add(-1)
		}
		p.mu.Unlock()
	}
}

// StoreInfo describes the active storage backend and its tier
// occupancy, for /readyz and benchmark reporting.
type StoreInfo struct {
	Backend    string
	Clusters   store.ClusterStats
	Pairs      store.PairStats
	HotPairs   int
	PairBudget int
}

// StoreInfo snapshots the backend's tier state. Lock-free.
func (h *Hub) StoreInfo() StoreInfo {
	return StoreInfo{
		Backend:    h.backend.Name(),
		Clusters:   h.clusters.Stats(),
		Pairs:      h.backend.Pairs().Stats(),
		HotPairs:   int(h.hotPairs.Load()),
		PairBudget: h.caps.HotPairs,
	}
}
