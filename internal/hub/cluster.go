// Global entity clusters: the one fold of pairwise matching tables into
// hub-wide entity identities. A node is one tuple of one source; an
// edge is one pairwise matching-table entry; a cluster is a connected
// component — the set of tuples, across all sources, identified as
// modeling the same real-world entity. The fold (clusterFold) is a
// dense union-find over every tuple of the hub; the *served* partition
// lives in the backend's cluster-record store (internal/store). Three
// callers fold: Link folds its one initial table over the clusters
// already stored, the snapshot loader folds every restored table once
// onto the empty store, and CheckInvariants folds the tables at a cut to
// compare with the store. Each publishes (or compares) every component
// a union made, once.
//
// The §3.2 uniqueness constraint lifts transitively: within one
// cluster, each source may contribute at most one tuple (two tuples of
// the same autonomous source in one cluster would assert that the
// source models the same entity twice, the cross-source analogue of a
// matching-table uniqueness violation). The check (store.CheckMerge)
// decides every union before it is made — the same function a live
// insert is decided by — so a violating table is rejected with nothing
// published.
package hub

import (
	"fmt"

	"entityid/internal/match"
	"entityid/internal/store"
)

// node identifies one tuple: source ordinal and tuple position. It is
// the storage layer's key type, aliased so hub code reads naturally.
type node = store.Node

// linkTable is one pair's matching table to fold: the ordinals of its
// left and right sources and the table, folded in log order. keys, when
// the fold follows the log across tables (Open's), holds the record that
// made each entry, non-decreasing along the table, and only the entries
// it covers are folded; without keys the whole table is, after the
// tables before it.
type linkTable struct {
	left, right int
	mt          *match.Table
	keys        []uint64
}

// entries returns how many of the table's entries the fold takes.
func (t linkTable) entries() int {
	if t.keys != nil {
		return len(t.keys)
	}
	return t.mt.Len()
}

// key returns the record that made entry k, 0 without keys.
func (t linkTable) key(k int) uint64 {
	if t.keys != nil {
		return t.keys[k]
	}
	return 0
}

// foldTables folds matching tables into the clusters of sources of the
// given lengths and returns, in order of first member, every component
// a union made, its members sorted — what the caller publishes once it
// has accepted the fold, or compares with the store. The entries fold in
// the order of their keys, across tables, ties in table order. Every
// union is decided by store.CheckMerge; the first violation is returned
// wrapping store.ErrUniqueness, naming the link and pair, with the key of
// the entry it broke at. When stored is non-nil, each node a table
// touches first brings in its stored cluster, read once, so a union
// counts every member the store already gave that node; a stored cluster
// no union grew is not returned. Nothing is published here.
func foldTables(lens []int, tables []linkTable, stored store.Clusters, srcName func(int) string) ([][]node, uint64, error) {
	f := newClusterFold(lens)
	next := make([]int, len(tables))
	for {
		// The table whose next entry has the least key: with two tables or
		// a handful, a scan is cheaper than a heap.
		ti := -1
		for i, t := range tables {
			if next[i] < t.entries() && (ti < 0 || t.key(next[i]) < tables[ti].key(next[ti])) {
				ti = i
			}
		}
		if ti < 0 {
			return f.components(), 0, nil
		}
		t, k := tables[ti], next[ti]
		next[ti]++
		pr := t.mt.At(k)
		a, b := node{Src: t.left, Idx: pr.RIndex}, node{Src: t.right, Idx: pr.SIndex}
		var err error
		if stored != nil {
			if err = f.seed(stored, a); err == nil {
				err = f.seed(stored, b)
			}
		}
		if err == nil {
			err = f.merge(a, b, srcName)
		}
		if err != nil {
			return nil, t.key(k), fmt.Errorf("link %q-%q: pair (%d,%d): %w", srcName(t.left), srcName(t.right), pr.RIndex, pr.SIndex, err)
		}
	}
}

// clusterFold is a union-find over the hub's tuples numbered densely in
// (source, index) order — node (s, i) is element base[s]+i — with a
// member list for every component a seed or a union touched. Every union
// keeps the smaller root, so a component's root is its first member.
type clusterFold struct {
	base   []int32
	parent []int32
	// at[r] is 1 + the index in lists of root r's member list; 0 for a
	// singleton nothing has touched and for every element not a root.
	at    []int32
	lists []foldList
	// partner is CheckMerge's one-partner argument, kept to spare an
	// allocation per edge.
	partner [1]node
}

// foldList is one component's members, sorted. stored marks a cluster
// read from the store that no union has grown since.
type foldList struct {
	members []node
	stored  bool
}

func newClusterFold(lens []int) *clusterFold {
	f := &clusterFold{base: make([]int32, len(lens)+1)}
	for s, n := range lens {
		f.base[s+1] = f.base[s] + int32(n)
	}
	total := f.base[len(lens)]
	f.parent = make([]int32, total)
	for x := range f.parent {
		f.parent[x] = int32(x)
	}
	f.at = make([]int32, total)
	return f
}

func (f *clusterFold) elem(n node) int32 { return f.base[n.Src] + int32(n.Idx) }

// find returns x's root, halving the path on the way.
func (f *clusterFold) find(x int32) int32 {
	for f.parent[x] != x {
		f.parent[x] = f.parent[f.parent[x]]
		x = f.parent[x]
	}
	return x
}

// Members returns the members of n's component — the reader
// store.CheckMerge decides a fold's unions over, as it decides a live
// insert's over the store. Every node of one component gets the same
// slice.
func (f *clusterFold) Members(n node) ([]node, error) {
	if k := f.at[f.find(f.elem(n))]; k > 0 {
		return f.lists[k-1].members, nil
	}
	return []node{n}, nil
}

// seed brings n's stored cluster into the fold unless n's component
// already holds it. A stored cluster is a component of its own until a
// union grows it: a node is read only after every member of its record
// was, so none of them has been touched yet.
func (f *clusterFold) seed(c store.Clusters, n node) error {
	if f.at[f.find(f.elem(n))] > 0 {
		return nil
	}
	ms, err := c.Members(n)
	if err != nil || len(ms) < 2 {
		return err
	}
	r := f.elem(ms[0]) // a record's members are sorted: ms[0] is first
	for _, m := range ms[1:] {
		f.parent[f.elem(m)] = r
	}
	f.lists = append(f.lists, foldList{members: ms, stored: true})
	f.at[r] = int32(len(f.lists))
	return nil
}

// merge unions the components of a and b if store.CheckMerge allows it,
// taking the sorted union it assembled as the merged member list.
func (f *clusterFold) merge(a, b node, srcName func(int) string) error {
	ra, rb := f.find(f.elem(a)), f.find(f.elem(b))
	if ra == rb {
		return nil
	}
	f.partner[0] = b
	merged, err := store.CheckMerge(f, a, f.partner[:], srcName)
	if err != nil {
		return err
	}
	lo, hi := min(ra, rb), max(ra, rb)
	f.parent[hi] = lo
	k := f.at[lo]
	switch {
	case k == 0 && f.at[hi] > 0:
		k = f.at[hi]
	case k == 0:
		f.lists = append(f.lists, foldList{})
		k = int32(len(f.lists))
	case f.at[hi] > 0:
		f.lists[f.at[hi]-1] = foldList{}
	}
	f.lists[k-1] = foldList{members: merged}
	f.at[lo], f.at[hi] = k, 0
	return nil
}

// components returns every component a union made, in order of first
// member — a component's root is its first member, so an ascending pass
// over the roots is that order.
func (f *clusterFold) components() [][]node {
	var out [][]node
	for _, k := range f.at {
		if k > 0 && !f.lists[k-1].stored {
			out = append(out, f.lists[k-1].members)
		}
	}
	return out
}
