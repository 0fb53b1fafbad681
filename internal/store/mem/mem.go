// Package mem is the default, always-resident storage backend: the
// pre-seam in-memory layout of the hub, verbatim. Cluster records live
// in a node→record map striped across lock shards; pair tables are
// held as plain exported states (the hub only spills pairs when a
// backend advertises a hot-pair budget, which mem does not, so the
// pair store here exists for interface completeness and tests).
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
//   - Readers take only one shard's read lock, and only around the map
//     lookup itself. Point reads on different shards share nothing; no
//     read path takes a hub-global lock.
//
//   - Writers are already serialised by the hub's commit lock, so
//     writer-side lookups need no shard lock at all, and shard write
//     locks are held only for the map stores that publish a record.
//
// Readers racing a merge see either the old record or the new one for
// any given node — never a torn member set. Singletons are implicit: a
// node with no record is its own cluster, so unmatched inserts publish
// nothing and touch no shard lock.
package mem

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"entityid/internal/store"
)

// shardCount stripes the node→record map; a power of two so shardOf
// reduces to a mask. 32 shards keep per-shard reader locks uncontended
// well past the core counts one process serves.
const shardCount = 32

// rec is one published cluster: its members sorted by (source ordinal,
// tuple index). Immutable after publication.
type rec struct {
	members []store.Node
}

// shard is one lock stripe of the store.
type shard struct {
	// Shard locks are never nested (Publish locks one shard at a time),
	// so one rank covers all stripes.
	//entitylint:lock rank=100
	mu  sync.RWMutex
	rec map[store.Node]*rec
	// pad spaces shards onto distinct cache lines so reader locks on
	// neighbouring shards do not false-share.
	_ [64]byte
}

// clusters is the sharded node → cluster map plus the running merge
// count that makes Stats O(sources) instead of O(hub).
type clusters struct {
	shards [shardCount]shard
	// merged is Σ (cluster size − 1) over all non-singleton clusters:
	// the number of tuples clustering has folded away. Updated at
	// publish time under the commit lock; read atomically.
	merged atomic.Int64
	// recs/entries track hot-tier occupancy for Stats (everything is
	// hot here). Updated under the commit lock, read atomically.
	recs    atomic.Int64
	entries atomic.Int64
}

// shardOf maps a node onto its lock stripe.
//
//entitylint:hotpath
func shardOf(n store.Node) int {
	h := uint64(uint32(n.Src))*0x9e3779b1 ^ uint64(uint32(n.Idx))*0x85ebca77
	return int((h ^ h>>16) & (shardCount - 1))
}

//entitylint:hotpath noalloc,noobs,noio
func (c *clusters) Read(n store.Node) ([]store.Node, error) {
	sh := &c.shards[shardOf(n)]
	sh.mu.RLock()
	r := sh.rec[n]
	sh.mu.RUnlock()
	if r == nil {
		return nil, nil
	}
	return r.members, nil
}

// Glance is the walk-side probe: the one shard lookup Read makes,
// answering the first member beside the set (everything is resident).
//
//entitylint:hotpath noalloc,noobs,noio
func (c *clusters) Glance(n store.Node) (first store.Node, resident []store.Node, ok bool) {
	ms, _ := c.Read(n)
	if ms == nil {
		return first, nil, false
	}
	return ms[0], ms, true
}

// Peek is Read: there is no tier to leave undisturbed.
//
//entitylint:hotpath noalloc,noobs,noio
func (c *clusters) Peek(n store.Node) ([]store.Node, error) { return c.Read(n) }

// recOf is the writer-side lookup. Callers hold the hub's commit lock —
// the store's single-mutator guarantee — so no shard lock is needed.
//
//entitylint:hotpath
func (c *clusters) recOf(n store.Node) *rec {
	return c.shards[shardOf(n)].rec[n]
}

func (c *clusters) Members(n store.Node) ([]store.Node, error) {
	if r := c.recOf(n); r != nil {
		return r.members, nil
	}
	return []store.Node{n}, nil
}

//entitylint:hotpath
func (c *clusters) Has(n store.Node) bool {
	return c.recOf(n) != nil
}

// Publish installs one cluster: a fresh immutable record stored for
// every member, from the last member to the first, one shard lock at a
// time (shard write locks are never nested). A reader of any member
// sees either its old record or the new one — both committed states —
// and one that has seen the new record at a member sees it at every
// later member, so a walk in node order never serves a merged cluster
// and then, further on, a state it superseded. Writer-side; the only
// place shard write locks are taken.
func (c *clusters) Publish(members []store.Node) {
	prev := 0
	prevRecs := 0
	seen := map[*rec]bool{}
	for _, m := range members {
		if r := c.recOf(m); r != nil && !seen[r] {
			seen[r] = true
			prev += len(r.members) - 1
			prevRecs++
		}
	}
	nr := &rec{members: members}
	for i := len(members) - 1; i >= 0; i-- {
		sh := &c.shards[shardOf(members[i])]
		sh.mu.Lock()
		sh.rec[members[i]] = nr
		sh.mu.Unlock()
	}
	c.merged.Add(int64(len(members) - 1 - prev))
	c.recs.Add(int64(1 - prevRecs))
	c.entries.Add(int64(len(members) - (prev + prevRecs)))
}

func (c *clusters) Merged() int64 { return c.merged.Load() }

// Partition returns the canonical non-singleton cluster partition:
// members sorted by (source, index), clusters sorted by first member —
// the snapshot/verification form. Every record holds ≥ 2 members by
// construction, so the records themselves are the partition.
// Writer-side.
func (c *clusters) Partition() ([][]store.Node, error) {
	seen := map[*rec]bool{}
	var out [][]store.Node
	for i := range c.shards {
		for _, r := range c.shards[i].rec {
			if seen[r] {
				continue
			}
			seen[r] = true
			out = append(out, r.members)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0].Src != out[b][0].Src {
			return out[a][0].Src < out[b][0].Src
		}
		return out[a][0].Idx < out[b][0].Idx
	})
	return out, nil
}

func (c *clusters) Stats() store.ClusterStats {
	return store.ClusterStats{
		HotRecords: int(c.recs.Load()),
		HotEntries: int(c.entries.Load()),
	}
}

// pairs holds saved pair tables resident. The hub never spills pairs
// to an unbounded backend, so in production this map stays empty; it
// behaves correctly regardless.
type pairs struct {
	//entitylint:lock rank=110
	mu   sync.Mutex
	tabs map[int]store.PairTab
	st   store.PairStats
}

func (p *pairs) Save(id int, tab store.PairTab) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.tabs[id]; !ok {
		p.st.Spilled++
	}
	p.tabs[id] = tab
	p.st.Spills++
	return nil
}

func (p *pairs) Load(id int) (store.PairTab, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	tab, ok := p.tabs[id]
	if !ok {
		return store.PairTab{}, fmt.Errorf("mem: pair %d not saved", id)
	}
	p.st.PageIns++
	return tab, nil
}

func (p *pairs) Stats() store.PairStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st
}

// Backend is the in-memory storage backend.
type Backend struct {
	c clusters
	p pairs
}

// New returns a fresh, empty in-memory backend.
func New() *Backend {
	b := &Backend{}
	for i := range b.c.shards {
		b.c.shards[i].rec = map[store.Node]*rec{}
	}
	b.p.tabs = map[int]store.PairTab{}
	return b
}

func (b *Backend) Name() string             { return "mem" }
func (b *Backend) Caps() store.Caps         { return store.Caps{} }
func (b *Backend) Clusters() store.Clusters { return &b.c }
func (b *Backend) Pairs() store.Pairs       { return &b.p }
func (b *Backend) Close() error             { return nil }
