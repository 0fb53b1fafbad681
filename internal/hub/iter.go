// Streaming cluster enumeration: Clusters()'s O(hub)
// materialise-under-lock is replaced by an iterator that visits nodes
// in (source registration order, tuple position) order and emits a
// cluster exactly when the node under the cursor is the cluster's
// smallest member *inside the iteration cut* — the committed lengths
// when the walk started. On a quiescent hub that is simply the
// smallest member, reproducing the classic enumeration order (by
// smallest member, singletons included) while holding at most one store
// lock at a time (none on the resident store) and materialising one
// cluster at a time, so enumeration memory is O(largest cluster plus a
// window), not O(hub). The walk reads through the store, never into it,
// a window of one source's nodes at a time (store.Clusters.Window): the
// index entry of every node, one body per emitted cluster and none per
// skipped one, and no record promoted — on the resident store that is
// two atomic loads per node (the positional index of store.Index), on
// the disk store one hold of the tier's lock per window and, outside
// it, one read per run of the window's cold records, decoded into the
// walk's own arena, that leaves the hot set as the point reads built
// it. What the walk hands out lies in one reused buffer and one block of
// IDs: a walked cluster allocates nothing. Anchoring
// emission inside the cut matters under concurrent ingest: a cluster
// whose absolute lead was committed after the cut is still emitted at
// its oldest in-cut member instead of being skipped toward a node the
// walk will never visit.
//
// Consistency: each emitted cluster is a committed partition state at
// its window's read (the record is immutable), and one pass's clusters
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
	"strconv"
	"strings"

	"entityid/internal/store"
)

// clustersWalk visits, in canonical order, every cluster with a member
// inside the cut (the committed source lengths at call time) whose
// position follows start, counts the first skip of them past, and hands
// fn each of the rest: the visit node and the cluster's member set (nil
// for an implicit singleton); fn returns false to stop.
//
// The walk reads through the store, not into it, a window of one
// source's nodes at a time (store.Clusters.Window). At every node it
// judges what the window found: a node with no record is a singleton; a
// node whose record's first member is inside the cut and is not the node
// itself belongs to a cluster emitted earlier and is passed without a
// body being read; a node that is its record's first member leads it,
// which is all a skipped cluster needs to be counted. A body is read —
// by the window, which promotes nothing — only to emit a cluster, or in
// the rare case the record's first member lies outside the cut (a merge
// after the cut handed the cluster a new lead) and the lead inside the
// cut has to be found among the members. Each emit, count or pass is
// decided from ONE committed record, the window's: a window answers all
// its nodes from one state, and a later window sees a later one. So a
// cluster costs one body read however many members it has, and none when
// skipped.
//
// Windows start at one node and double up to store.WindowNodes, so a
// short page reads little and the first clusters are as fresh as a
// node-by-node walk's; while the walk is counting past skip a window
// reads no lead's body, and the window after the last cluster counted
// starts at one node again. A storage read error (possible only on a
// paging backend) stops the walk at the first node whose body could not
// be read, and is returned.
//
//entitylint:hotpath noobs
func (h *Hub) clustersWalk(t *topoView, start node, skip int, fn func(n node, members []node) bool) error {
	w := new(store.Window)
	w.Cut = make([]int, len(t.sources))
	for i, s := range t.sources {
		w.Cut[i] = s.view.Load().rows.Len()
	}
	size := 1
	for si := start.Src; si < len(t.sources); si++ {
		i := 0
		if si == start.Src {
			i = start.Idx
		}
		for i < w.Cut[si] {
			w.Src, w.Lo, w.Hi, w.Leads = si, i, min(i+size, w.Cut[si]), skip == 0
			// A window whose read failed still answers every node before the
			// first body it could not read, so the walk serves those first.
			werr := h.clusters.Window(w)
			size = min(2*size, store.WindowNodes)
			for ; i < w.Hi; i++ {
				n := node{Src: si, Idx: i}
				got := w.Got[i-w.Lo]
				if got.OK && got.First != n && w.InCut(got.First) {
					continue // emitted (or to be emitted) at first
				}
				// A lead about to be counted past needs no body; any other
				// record does, and the window has read it (w.Leads is
				// skip == 0 throughout a window).
				if got.OK && w.Needs(n, got.First) {
					if got.Members == nil && werr != nil {
						return werr
					}
					// Emit at the cluster's first in-cut member (n itself is
					// in the cut, so one exists at or before n).
					lead := n
					for _, m := range got.Members {
						if w.InCut(m) {
							lead = m
							break
						}
					}
					if lead != n {
						continue
					}
				}
				if skip > 0 {
					if skip--; skip == 0 {
						// The rest of this window was read for counting: the
						// clusters to serve start in a window of one node.
						i, size = i+1, 1
						break
					}
					continue
				}
				if !fn(n, got.Members) {
					return nil
				}
			}
			if werr != nil && i == w.Hi {
				return werr
			}
		}
	}
	return nil
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
// Members slice is the walk's buffer, overwritten by the next cluster,
// and valid only until fn returns. A caller that keeps a cluster keeps
// its Clone. Its ID and the resume cursor are the caller's to keep: both
// are cut from the walk's block of IDs (idBlock). So a walked cluster
// allocates nothing — a member is its view's rows and its row — and a
// walk allocates one block of IDs per few hundred clusters.
//
// On a quiescent hub the resume cursor is the cluster's ID, the visit
// node being the lead; under concurrent ingest the two can differ (a
// merge can hand the cluster a lead outside the cut), and it is the
// *visit* position that must anchor resumption — a cursor taken from
// the absolute lead could jump the walk backwards and re-serve clusters
// already emitted.
//
//entitylint:hotpath noobs
func (h *Hub) ClustersWalk(cursor string, skip int, fn func(c Cluster, resume string) bool) error {
	t := h.topo.Load()
	start, err := startFrom(t, cursor)
	if err != nil {
		return err
	}
	// The walk's Members buffer and its block of IDs start in one
	// allocation; a cluster larger than the buffer grows it once.
	bufs := new(struct {
		members [4]Member
		ids     idBlock
	})
	bufs.ids.size = walkIDBlock
	c := Cluster{Members: bufs.members[:0]}
	var single [1]node
	return h.clustersWalk(t, start, skip, func(n node, members []node) bool {
		if members == nil {
			single[0] = n
			members = single[:]
		}
		c.Members = h.materialize(c.Members[:0], t, members)
		c.ID = bufs.ids.id(t, members[0])
		resume := c.ID
		if members[0] != n {
			resume = bufs.ids.id(t, n)
		}
		return fn(c, resume)
	})
}

// Clusters enumerates every global entity cluster into one slice — the
// materialised form of a whole ClustersWalk, each cluster copied out of
// the walk's buffers (Cluster.Clone), deterministic for a given partition regardless of
// insert order. Prefer ClustersWalk when the hub is large.
func (h *Hub) Clusters() []Cluster {
	var out []Cluster
	// A storage read error ends the enumeration early; callers needing
	// the error use ClustersWalk.
	_ = h.ClustersWalk("", 0, func(c Cluster, _ string) bool {
		out = append(out, c.Clone())
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
