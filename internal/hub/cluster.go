// Global entity clusters: the union-find structure that folds pairwise
// matching tables into hub-wide entity identities. A node is one tuple
// of one source; an edge is one pairwise matching-table entry; a
// cluster is a connected component — the set of tuples, across all
// sources, identified as modeling the same real-world entity. The
// union-find is the *folding* structure (speculative link folds,
// snapshot refolds); the *served* partition lives in the backend's
// cluster-record store (internal/store).
//
// The §3.2 uniqueness constraint lifts transitively: within one
// cluster, each source may contribute at most one tuple (two tuples of
// the same autonomous source in one cluster would assert that the
// source models the same entity twice, the cross-source analogue of a
// matching-table uniqueness violation). The check (store.CheckMerge)
// runs before any union, so a violating merge is rejected with the
// structure untouched.
package hub

import "entityid/internal/store"

// node identifies one tuple: source ordinal and tuple position. It is
// the storage layer's key type, aliased so hub code reads naturally.
type node = store.Node

// clusterSet is a union-find over nodes with per-root member lists.
// Nodes absent from parent are implicit singletons, so the structure
// never needs to be pre-populated with every tuple. Not safe for
// concurrent use; the Hub guards it with its cluster lock.
type clusterSet struct {
	parent  map[node]node
	size    map[node]int
	members map[node][]node
}

func newClusterSet() *clusterSet {
	return &clusterSet{
		parent:  map[node]node{},
		size:    map[node]int{},
		members: map[node][]node{},
	}
}

// find returns the root of n's cluster, with path compression.
func (c *clusterSet) find(n node) node {
	p, ok := c.parent[n]
	if !ok || p == n {
		return n
	}
	root := c.find(p)
	c.parent[n] = root
	return root
}

// membersOf returns the members of the cluster rooted at root (shared;
// do not mutate). Implicit singletons return themselves.
func (c *clusterSet) membersOf(root node) []node {
	if m, ok := c.members[root]; ok {
		return m
	}
	return []node{root}
}

// sizeOf returns the cluster size of a root.
func (c *clusterSet) sizeOf(root node) int {
	if s, ok := c.size[root]; ok {
		return s
	}
	return 1
}

// Members returns the members of n's cluster — the reader
// store.CheckMerge runs the transitive uniqueness check over, so a
// link's speculative fold and a live insert are decided by the same
// function. Every node of one cluster gets the same slice.
func (c *clusterSet) Members(n node) ([]node, error) {
	return c.membersOf(c.find(n)), nil
}

// union merges the clusters of a and b (union by size).
func (c *clusterSet) union(a, b node) {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return
	}
	if c.sizeOf(ra) < c.sizeOf(rb) {
		ra, rb = rb, ra
	}
	c.parent[rb] = ra
	if _, ok := c.parent[ra]; !ok {
		c.parent[ra] = ra
	}
	merged := append(append([]node(nil), c.membersOf(ra)...), c.membersOf(rb)...)
	c.size[ra] = len(merged)
	c.members[ra] = merged
	delete(c.members, rb)
	delete(c.size, rb)
}

// sortNodes orders nodes by (source, index).
func sortNodes(ns []node) { store.SortNodes(ns) }
