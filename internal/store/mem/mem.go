// Package mem is the default, always-resident storage backend. Cluster
// records live in a store.Index — tuples are numbered, so each node's
// record sits at its position in a per-source list of fixed-size chunks
// — and its pair store is store.NewPairs': the hub never saves a pair
// (store's package comment).
//
// The design splits the cluster store along the reader/writer
// asymmetry:
//
//   - Cluster records are immutable. A record is the complete, sorted
//     member set of one cluster; a merge builds a fresh record and
//     republishes it for every member. A reader that has loaded a
//     record therefore holds a committed member set with no further
//     locking — there is nothing it could observe half-updated.
//
//   - Readers take no lock at all: a read is two atomic loads, the
//     index's directory and the node's slot. Point reads share nothing
//     with each other or with the writer but the cache lines they read.
//
//   - Writers are already serialised by the hub's commit lock, which is
//     all the index's copy-on-write growth and its slot stores need.
//
// Readers racing a merge see either the old record or the new one for
// any given node — never a torn member set. Singletons are implicit: a
// node with no record is its own cluster, so unmatched inserts publish
// nothing.
package mem

import (
	"slices"
	"sync/atomic"

	"entityid/internal/store"
)

// rec is one published cluster: its members sorted by (source ordinal,
// tuple index). Immutable after publication.
type rec struct {
	members []store.Node
}

// clusters is the node → cluster index plus the running merge count
// that makes Stats O(sources) instead of O(hub).
type clusters struct {
	idx store.Index[rec]
	// merged is Σ (cluster size − 1) over all non-singleton clusters:
	// the number of tuples clustering has folded away. Updated at
	// publish time under the commit lock; read atomically.
	merged atomic.Int64
	// recs/entries track hot-tier occupancy for Stats (everything is
	// hot here). Updated under the commit lock, read atomically.
	recs    atomic.Int64
	entries atomic.Int64
}

//entitylint:hotpath noalloc,noobs,noio
func (c *clusters) Read(n store.Node) ([]store.Node, error) {
	if r := c.idx.Get(n); r != nil {
		return r.members, nil
	}
	return nil, nil
}

// Glance is the walk-side probe: the one index load Read makes,
// answering the first member beside the set (everything is resident).
//
//entitylint:hotpath noalloc,noobs,noio
func (c *clusters) Glance(n store.Node) (first store.Node, resident []store.Node, ok bool) {
	r := c.idx.Get(n)
	if r == nil {
		return first, nil, false
	}
	return r.members[0], r.members, true
}

// Peek is Read: there is no tier to leave undisturbed.
//
//entitylint:hotpath noalloc,noobs,noio
func (c *clusters) Peek(n store.Node) ([]store.Node, error) { return c.Read(n) }

func (c *clusters) Members(n store.Node) ([]store.Node, error) {
	if r := c.idx.Get(n); r != nil {
		return r.members, nil
	}
	return []store.Node{n}, nil
}

//entitylint:hotpath
func (c *clusters) Has(n store.Node) bool {
	return c.idx.Get(n) != nil
}

// Publish installs one cluster: a fresh immutable record stored for
// every member, from the last member to the first. A reader of any
// member sees either its old record or the new one — both committed
// states — and one that has seen the new record at a member sees it at
// every later member, so a walk in node order never serves a merged
// cluster and then, further on, a state it superseded. Writer-side.
func (c *clusters) Publish(members []store.Node) {
	prev, prevRecs := 0, 0
	for _, m := range members {
		// The new set is a superset of every record it supersedes, so each
		// of them is counted once, at its first member.
		if r := c.idx.Get(m); r != nil && r.members[0] == m {
			prev += len(r.members) - 1
			prevRecs++
		}
	}
	nr := &rec{members: members}
	for i := len(members) - 1; i >= 0; i-- {
		c.idx.Set(members[i], nr)
	}
	c.merged.Add(int64(len(members) - 1 - prev))
	c.recs.Add(int64(1 - prevRecs))
	c.entries.Add(int64(len(members) - (prev + prevRecs)))
}

func (c *clusters) Merged() int64 { return c.merged.Load() }

// Partition returns the canonical non-singleton cluster partition:
// members sorted by (source, index), clusters sorted by first member —
// the snapshot/verification form. Every record holds ≥ 2 members by
// construction, so the records themselves are the partition; the index
// walks in node order, and taking each record at its first member keeps
// it once, in that order, into a slice sized by the record count.
// Writer-side.
func (c *clusters) Partition() ([][]store.Node, error) {
	out := slices.Grow([][]store.Node(nil), int(c.recs.Load())) // nil for an empty store
	for n, r := range c.idx.All {
		if r.members[0] == n {
			out = append(out, r.members)
		}
	}
	return out, nil
}

func (c *clusters) Stats() store.ClusterStats {
	return store.ClusterStats{
		HotRecords: int(c.recs.Load()),
		HotEntries: int(c.entries.Load()),
	}
}

// Backend is the in-memory storage backend.
type Backend struct {
	c clusters
	p store.Pairs
}

// New returns a fresh, empty in-memory backend.
func New() *Backend { return &Backend{p: store.NewPairs()} }

func (b *Backend) Name() string             { return "mem" }
func (b *Backend) Clusters() store.Clusters { return &b.c }
func (b *Backend) Pairs() store.Pairs       { return b.p }
func (b *Backend) Close() error             { return nil }
