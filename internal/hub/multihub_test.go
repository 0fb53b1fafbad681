// Test support shared by this package's tests and benchmarks, internal
// and external (the exported names reach package hub_test): assembly of
// hubs over datagen's K-source synthetic workloads — in a test file so
// the hub, and with it entityidd, does not link the data generator —
// and the two accessors the differential test reads a hub's pairwise
// state through.
package hub

import (
	"fmt"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/match"
	"entityid/internal/relation"
)

// SpecFromMultiPair lifts a datagen pair description into a link spec.
func SpecFromMultiPair(mp datagen.MultiPair) PairSpec {
	return PairSpec{
		Left:   mp.Left,
		Right:  mp.Right,
		Attrs:  mp.Attrs,
		ExtKey: mp.ExtKey,
		ILFDs:  mp.ILFDs,
	}
}

// seedTopology registers empty copies of the workload's sources and
// links every pair — the streaming-ingest starting state.
func seedTopology(h *Hub, w *datagen.MultiWorkload) error {
	for k, name := range w.Names {
		if err := h.AddSource(name, relation.New(w.Relations[k].Schema())); err != nil {
			return err
		}
	}
	for i := 0; i < len(w.Names); i++ {
		for j := i + 1; j < len(w.Names); j++ {
			if err := h.Link(SpecFromMultiPair(w.Pair(i, j))); err != nil {
				return err
			}
		}
	}
	return nil
}

// NewFromMulti is seedTopology on a fresh memory-only hub.
func NewFromMulti(w *datagen.MultiWorkload) (*Hub, error) {
	h := New()
	return h, seedTopology(h, w)
}

// openMultiOpts opens a durable hub in dir and, when the directory is
// fresh, seeds the workload's topology.
func openMultiOpts(t testing.TB, dir string, w *datagen.MultiWorkload, opts Options) (*Hub, *RecoveryInfo) {
	t.Helper()
	h, info, err := openOn(dir, opts)
	if err == nil && !info.FromSnapshot && info.LastSeq == 0 {
		err = seedTopology(h, w)
	}
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return h, info
}

// MultiInserts flattens the workload into ingest items, in source-major
// order; callers shuffle for streaming experiments.
func MultiInserts(w *datagen.MultiWorkload) []Insert {
	var out []Insert
	for k, rel := range w.Relations {
		for _, t := range rel.Tuples() {
			out = append(out, Insert{Source: w.Names[k], Tuple: t.Clone()})
		}
	}
	return out
}

// SourceRelation returns a clone of a source's current canonical
// relation, for inspection and differential testing.
func (h *Hub) SourceRelation(source string) (*relation.Relation, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	si, ok := h.byName[source]
	if !ok {
		return nil, fmt.Errorf("hub: unknown source %q", source)
	}
	src := h.sources[si]
	src.keyMu.RLock()
	defer src.keyMu.RUnlock()
	return src.rel.Clone(), nil
}

// PairResult exposes one link's current match result for differential
// testing against batch construction (shared state; hold no reference
// across hub mutations).
func (h *Hub) PairResult(left, right string) (*match.Result, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	li, ok := h.byName[left]
	if !ok {
		return nil, fmt.Errorf("hub: unknown source %q", left)
	}
	ri, ok := h.byName[right]
	if !ok {
		return nil, fmt.Errorf("hub: unknown source %q", right)
	}
	for _, p := range h.pairs {
		if p.left == li && p.right == ri {
			p.mu.Lock()
			fed, err := h.pairFedLocked(p)
			p.mu.Unlock()
			if err != nil {
				return nil, err
			}
			return fed.Result(), nil
		}
	}
	return nil, fmt.Errorf("hub: sources %q and %q not linked", left, right)
}
