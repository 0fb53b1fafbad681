// Streaming cluster enumeration: Clusters()'s O(hub)
// materialise-under-lock is replaced by an iterator that visits nodes
// in (source registration order, tuple position) order and emits a
// cluster exactly when the node under the cursor is the cluster's
// smallest member *inside the iteration cut* — the committed lengths
// when the walk started. On a quiescent hub that is simply the
// smallest member, reproducing the classic enumeration order (by
// smallest member, singletons included) while holding at most one store
// lock at a time (none on the resident store) and materialising one
// cluster at a time, so
// enumeration memory is O(largest cluster), not O(hub). The walk reads
// through the store, never into it: one index probe per node
// (store.Clusters.Glance), one body per emitted cluster and none per
// skipped one (Peek), and no record promoted — on the resident store
// that is two atomic loads per node (the positional index of
// store.Index), on the disk store one pread per cold cluster, outside
// the tier's lock, that leaves the hot set as the point reads built it.
// What the walk hands out it builds in one reused buffer: a walked
// cluster allocates its ID and nothing else. Anchoring
// emission inside the cut matters under concurrent ingest: a cluster
// whose absolute lead was committed after the cut is still emitted at
// its oldest in-cut member instead of being skipped toward a node the
// walk will never visit.
//
// Consistency: each emitted cluster is a committed partition state at
// its visit time (the record is immutable), and one pass's clusters
// are always pairwise disjoint. Across a long enumeration concurrent
// ingest may merge clusters behind the cursor; the *entity* then
// appears in the earlier, smaller committed form the walk emitted
// before the merge — but a tuple whose cluster merges into a region
// the walk has already passed can be absent from that pass entirely
// (its own position is skipped as belonging to an already-visited
// lead, which was emitted before the tuple joined it). That is the
// weak consistency inherent to any snapshot-free cursor walk over a
// live store: per-pass output is sound, not tuple-complete. A
// quiescent hub enumerates exactly its partition, every tuple
// included, deterministically.
//
// Pagination builds on the same walk: the cursor is a walk position
// (source/index), and resumption seeks straight to the following node
// — O(1), not O(offset). ClustersWalk hands back the exact resume
// cursor; on a quiescent hub it equals the last cluster's ID.
package hub

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// clustersWalk visits, in canonical order, every cluster with a member
// inside the cut (the committed source lengths at call time) whose
// position follows start, counts the first skip of them past, and hands
// fn each of the rest: the visit node and the cluster's member set (nil
// for an implicit singleton); fn returns false to stop.
//
// The walk reads through the store, not into it. At every node it asks
// the index alone (Glance): a node with no record is a singleton; a node
// whose record's first member is inside the cut and is not the node
// itself belongs to a cluster emitted earlier and is passed without a
// body being read; a node that is its record's first member leads it,
// which is all a skipped cluster needs to be counted. A body is asked
// for (Peek, which promotes nothing) only to emit a cluster, or in the
// rare case the record's first member lies outside the cut — a merge
// after the cut handed the cluster a new lead — and the lead inside the
// cut has to be found among the members. Either way each emit, count or
// pass is decided from ONE committed record: the glance's, or, once a
// body has been fetched, the body's alone — a body that arrives newer
// than the glance is judged again from scratch. So a cluster costs one
// body read however many members it has, and none when skipped. A
// storage read error (possible only on a paging backend) stops the walk
// and is returned.
//
//entitylint:hotpath noobs
func (h *Hub) clustersWalk(t *topoView, start node, skip int, fn func(n node, members []node) bool) error {
	lens := make([]int, len(t.sources))
	for i, s := range t.sources {
		lens[i] = len(s.view.Load().tuples)
	}
	inCut := func(m node) bool {
		return m.Src < len(lens) && m.Idx < lens[m.Src]
	}
	for si := start.Src; si < len(t.sources); si++ {
		lo := 0
		if si == start.Src {
			lo = start.Idx
		}
		for i := lo; i < lens[si]; i++ {
			n := node{Src: si, Idx: i}
			first, ms, ok := h.clusters.Glance(n)
			if ok && first != n && inCut(first) {
				continue // emitted (or to be emitted) at first
			}
			// A lead about to be counted past needs no body; any other
			// record does, to be emitted or to have its in-cut lead found.
			if ok && (first != n || skip == 0) {
				if ms == nil {
					var err error
					if ms, err = h.clusters.Peek(n); err != nil {
						return err
					}
				}
				// Emit at the cluster's first in-cut member (n itself is
				// in the cut, so one exists at or before n).
				lead := n
				for _, m := range ms {
					if inCut(m) {
						lead = m
						break
					}
				}
				if lead != n {
					continue
				}
			}
			if skip > 0 {
				skip--
				continue
			}
			if !fn(n, ms) {
				return nil
			}
		}
	}
	return nil
}

// cursorFor returns the cursor that resumes the walk after visit node
// n, whose cluster c was just materialised over members. On a quiescent
// hub this equals the cluster's ID — the visit node is the lead, and
// the string is reused; under concurrent ingest the two can differ (a
// merge can hand the cluster a lead outside the cut), and it is the
// *visit* position that must anchor resumption — a cursor taken from
// the absolute lead could jump the walk backwards and re-serve clusters
// already emitted.
func cursorFor(t *topoView, n node, members []node, c Cluster) string {
	if members[0] == n {
		return c.ID
	}
	return nodeID(t, n)
}

// ClustersWalk visits the clusters that follow the cursor ("" = from
// the beginning), passing each materialised cluster together with the
// cursor that resumes the walk immediately after it; fn returns false
// to stop. The first skip clusters are counted past without being
// materialised or read from the store — the offset form of pagination. It is the one
// enumeration primitive, what the HTTP front-end paginates with: the
// resume cursor tracks the walk position, which stays monotone even when
// concurrent merges move a cluster's ID.
//
// The Cluster handed to fn is borrowed, as bufio.Scanner.Bytes is: its
// Members slice is the walk's one buffer, overwritten by the next
// cluster, and valid only until fn returns. A caller that keeps a
// cluster keeps a copy of its Members (slices.Clone). Its ID, the
// resume cursor and the members' tuples are the caller's to keep. So a
// walked cluster costs one allocation, its ID.
//
//entitylint:hotpath noobs
func (h *Hub) ClustersWalk(cursor string, skip int, fn func(c Cluster, resume string) bool) error {
	t := h.topo.Load()
	start, err := startFrom(t, cursor)
	if err != nil {
		return err
	}
	var c Cluster
	var single [1]node
	return h.clustersWalk(t, start, skip, func(n node, members []node) bool {
		if members == nil {
			single[0] = n
			members = single[:]
		}
		c = h.materializeInto(c.Members, t, members)
		return fn(c, cursorFor(t, n, members, c))
	})
}

// Clusters enumerates every global entity cluster into one slice — the
// materialised form of a whole ClustersWalk, each cluster copied out of
// the walk's buffer, deterministic for a given partition regardless of
// insert order. Prefer ClustersWalk when the hub is large.
func (h *Hub) Clusters() []Cluster {
	var out []Cluster
	// A storage read error ends the enumeration early; callers needing
	// the error use ClustersWalk.
	_ = h.ClustersWalk("", 0, func(c Cluster, _ string) bool {
		c.Members = slices.Clone(c.Members)
		out = append(out, c)
		return true
	})
	return out
}

// ErrBadCursor matches (errors.Is) a walk refused because its cursor is
// malformed or names no position of this hub — the caller's mistake, as
// opposed to a storage read error mid-walk.
var ErrBadCursor = errors.New("hub: bad cluster cursor")

// startFrom resolves a cursor to the walk's first candidate node: the
// position immediately after the cursor, or the origin for "".
func startFrom(t *topoView, cursor string) (node, error) {
	if cursor == "" {
		return node{}, nil
	}
	after, err := parseCursor(t, cursor)
	if err != nil {
		return node{}, err
	}
	return node{Src: after.Src, Idx: after.Idx + 1}, nil
}

// parseCursor resolves a cluster ID ("source/index") to its node. The
// index is everything after the final slash, so source names containing
// slashes still parse.
func parseCursor(t *topoView, cursor string) (node, error) {
	slash := strings.LastIndexByte(cursor, '/')
	if slash < 0 {
		return node{}, fmt.Errorf("%w %q (want source/index)", ErrBadCursor, cursor)
	}
	name := cursor[:slash]
	si, ok := t.byName[name]
	if !ok {
		return node{}, fmt.Errorf("%w %q: unknown source %q", ErrBadCursor, cursor, name)
	}
	idx, err := strconv.Atoi(cursor[slash+1:])
	// The walk resumes at idx+1, so the maximum int is rejected too —
	// the increment must not overflow into a negative start position.
	if err != nil || idx < 0 || idx == math.MaxInt {
		return node{}, fmt.Errorf("%w %q (want source/index)", ErrBadCursor, cursor)
	}
	return node{Src: si, Idx: idx}, nil
}
