// Fixture for the lockorder analyzer: a hub-shaped lock hierarchy with
// in-order, out-of-order, re-entrant and transitive acquisitions.
package lockorder_a

import "sync"

type Hub struct {
	//entitylint:lock rank=10
	snapMu sync.Mutex
	//entitylint:lock rank=20
	mu sync.RWMutex
	//entitylint:lock rank=50
	commitMu sync.Mutex
}

type Pair struct {
	//entitylint:lock rank=30
	mu sync.Mutex
}

func inOrder(h *Hub) {
	h.snapMu.Lock()
	h.mu.RLock()
	h.commitMu.Lock()
	h.commitMu.Unlock()
	h.mu.RUnlock()
	h.snapMu.Unlock()
}

func badOrder(h *Hub) {
	h.commitMu.Lock()
	defer h.commitMu.Unlock()
	h.mu.RLock() // want `mu \(field of Hub\) \(rank 20\) acquired while holding commitMu`
	h.mu.RUnlock()
}

func badReentrant(h *Hub) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	h.mu.RLock() // want `re-entrant acquisition of mu`
	h.mu.RUnlock()
}

// twoInstances holds one class on two instances: a lock class has one
// rank, so the second is re-entrant whichever instance it is.
func twoInstances(a, b *Pair) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `re-entrant acquisition of mu \(field of Pair\)`
	b.mu.Unlock()
}

// releaseResets shows that an explicit unlock reopens the lower ranks.
func releaseResets(h *Hub) {
	h.commitMu.Lock()
	h.commitMu.Unlock()
	h.snapMu.Lock()
	h.snapMu.Unlock()
}

// branchesIsolated: each switch case locks and returns; the cases must
// not pollute each other or the fall-through path.
func branchesIsolated(h *Hub, k int) int {
	switch k {
	case 0:
		h.mu.RLock()
		defer h.mu.RUnlock()
		return 0
	case 1:
		h.mu.RLock()
		defer h.mu.RUnlock()
		return 1
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	return 2
}

// tryIsExempt: TryLock never blocks, so ordering does not apply.
func tryIsExempt(h *Hub) {
	h.commitMu.Lock()
	defer h.commitMu.Unlock()
	if h.snapMu.TryLock() {
		h.snapMu.Unlock()
	}
}

func lockLow(h *Hub) {
	h.mu.RLock()
	h.mu.RUnlock()
}

func badViaCall(h *Hub) {
	h.commitMu.Lock()
	defer h.commitMu.Unlock()
	lockLow(h) // want `call to lockLow may acquire mu \(field of Hub\) \(rank 20\) while holding commitMu`
}

func okViaCall(h *Hub) {
	h.snapMu.Lock()
	defer h.snapMu.Unlock()
	lockLow(h)
}
