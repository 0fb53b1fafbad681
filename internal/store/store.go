// Package store is the hub's storage seam: a narrow interface for the
// committed state a backend may tier — cluster records — plus the
// generic merge logic that is identical across backends. Source tuples
// and pairs' matching results stay with the hub: every insert is
// identified against every pair of its source, and the live pairwise
// matchers require resident attribute access.
//
// The hub never reaches into concrete maps; it holds a Backend and
// talks to whatever that backend returns. store/mem is the default
// and keeps every record resident. store/disk bounds resident memory by
// spilling cold cluster records to CRC-checked files and paging them
// back on demand. Both find a node's record through the one positional
// Index (index.go): tuples are numbered, so a record sits at its
// members' positions, not under a hash.
//
// Both backends still carry a pair-table store (Pairs, PairTab,
// PairStats, Caps.HotPairs) that the hub no longer calls: the
// benchmark's tracer decorates it, and it goes with that decorator
// (ROADMAP item 11).
//
// Concurrency contract: Clusters readers (Read, Glance, Peek, Has,
// Merged, Stats) may run concurrently with each other and with the
// single mutator. Read is the point read and may move tier state (a
// paging backend promotes what it serves); Glance and Peek are the
// enumeration's pair and move none — Glance answers from the index
// without reading a body, Peek reads a body through the tier and leaves
// it where it was. Mutations (Publish) and writer-side reads
// (Members, CheckMerge) are serialized by the hub's commit lock;
// backends may rely on at most one of these running at a time. Slices
// returned by Read, Glance, Peek and Members are immutable once
// returned — callers must not modify them, and backends must never
// mutate a slice they have handed out, even after the record is
// superseded or evicted.
package store

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"entityid/internal/match"
)

// Node identifies one tuple: source ordinal and tuple index within
// that source. It is the key of the cluster-record store.
type Node struct {
	Src int
	Idx int
}

// SortNodes orders nodes by (Src, Idx), the canonical member order of
// every published cluster record.
func SortNodes(ns []Node) {
	slices.SortFunc(ns, func(a, b Node) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Idx, b.Idx))
	})
}

// ErrUniqueness marks a merge rejected because it would place two
// tuples of the same real-world source into one cluster, violating the
// paper's §3.2 instance-level uniqueness assumption transitively.
// Callers classify rejections with errors.Is(err, ErrUniqueness);
// anything else out of CheckMerge is a storage fault.
var ErrUniqueness = errors.New("transitive uniqueness violation")

// ClusterStats describes the cluster store's tiers. Always-hot
// backends report zero cold records and zero tier-traffic counters.
type ClusterStats struct {
	HotRecords  int   // multi-member records resident in memory
	HotEntries  int   // total members across resident records (the budgeted unit)
	ColdRecords int   // records whose members live only in the spill tier
	Budget      int   // configured HotEntries ceiling; 0 = unbounded
	Hits        int64 // reads served from the hot tier
	Misses      int64 // reads that had to page in
	Spills      int64 // record bodies written to the spill tier
	PageIns     int64 // record bodies read back from the spill tier
}

// Clusters is the cluster-record store: the mapping from a node to the
// sorted member set of its entity cluster. Nodes without a record are
// singletons.
type Clusters interface {
	// Read returns the cluster members containing n, or nil when n is
	// a singleton (or unknown). Safe for concurrent use; the returned
	// slice must not be modified.
	Read(n Node) ([]Node, error)

	// Glance answers what the index knows of n without reading a body
	// or moving tier state: whether n has a record (ok), the record's
	// first member, and the member set when it is resident (nil when it
	// would have to be paged in). All three describe one committed
	// record. Safe for concurrent use.
	Glance(n Node) (first Node, resident []Node, ok bool)

	// Peek is Read for a caller passing through: the same answer, but a
	// paging backend serves a cold record without promoting it or
	// evicting anything. Safe for concurrent use.
	Peek(n Node) ([]Node, error)

	// Members is the writer-side Read: it returns {n} itself for a
	// singleton instead of nil, and tiered backends keep the record
	// resident until the next Publish. Serialized by the commit lock.
	Members(n Node) ([]Node, error)

	// Has reports whether n currently has a multi-member record,
	// without touching tier state. Serialized by the commit lock.
	Has(n Node) bool

	// Publish installs a new record mapping every member to the given
	// sorted member set, superseding the members' previous records.
	// The caller's member set must be a superset of every superseded
	// record (always true for union-style merges). A concurrent reader
	// that has read the new record at one member reads it at every
	// later member: that is what keeps the clusters of one walk in node
	// order pairwise disjoint. Publish is infallible: a tiered backend
	// that cannot write its spill file keeps what it could not write in
	// memory (over budget) rather than losing it.
	Publish(members []Node)

	// Merged returns the total merge count: for each record,
	// len(members)-1, summed. Safe for concurrent use.
	Merged() int64

	// Partition returns every record's member set, sorted by first
	// member, without disturbing tier state. Serialized by the commit
	// lock (snapshot cuts hold it).
	Partition() ([][]Node, error)

	// Stats snapshots tier occupancy and traffic counters.
	Stats() ClusterStats
}

// PairTab is the portable state of one pair's matching table: its pairs
// in commit order and the side lengths it was computed over. The hub
// keeps every table resident and saves none here; see the package
// comment.
type PairTab struct {
	Pairs      []match.Pair
	RLen, SLen int
}

// PairStats describes the pair store's spill tier.
type PairStats struct {
	Spilled int   // pair tables currently held by the store
	Spills  int64 // Save calls (table bodies written)
	PageIns int64 // Load calls (table bodies read back)
}

// Pairs is the per-pair matching-table store, kept only for the
// benchmark's tracer (ROADMAP item 11): the hub never calls it.
type Pairs interface {
	// Save stores the pair table for link ordinal id, replacing any
	// previous save.
	Save(id int, tab PairTab) error

	// Load returns the most recently saved table for id. Loading an
	// id that was never saved is an error.
	Load(id int) (PairTab, error)

	// Stats snapshots spill-tier occupancy and traffic counters.
	Stats() PairStats
}

// Caps is the disk backend's residency budget: it evicts cluster
// records past HotClusterEntries. HotPairs is read by nothing; it goes
// with the pair store (ROADMAP item 11).
type Caps struct {
	HotClusterEntries int // Σ members of resident cluster records
	HotPairs          int
}

// Backend bundles the two stores plus identity and lifecycle.
type Backend interface {
	Name() string
	Clusters() Clusters
	Pairs() Pairs

	// Close releases backend resources. Idempotent.
	Close() error
}

// CheckMerge verifies that merging node n's cluster with the clusters
// of the given partner nodes cannot place two tuples of one source
// into the same cluster — the one place the transitive §3.2 check
// lives, for live inserts (c is the cluster store, n a fresh tuple)
// and for every union of the hub's cluster fold, the dense union-find a
// link's initial table, a snapshot load and the invariant check fold
// matching tables through (c is the fold, n may already be clustered)
// — and returns the merged cluster it assembled
// on the way: the sorted union of the member sets, which is what the
// caller publishes (Clusters.Publish). Without partners nothing merges and it returns nil. It
// needs only Members, and only that every node of one cluster gets the
// same slice back. srcName renders a source ordinal for the rejection
// message. Serialized by the commit lock.
func CheckMerge(c interface{ Members(Node) ([]Node, error) }, n Node, partners []Node, srcName func(int) string) ([]Node, error) {
	if len(partners) == 0 {
		return nil, nil
	}
	// A sound cluster holds one node per source, so merged stays as short
	// as the sources are few and is searched, not hashed.
	merged := make([]Node, 0, 2*(len(partners)+1))
	for i := -1; i < len(partners); i++ {
		p := n
		if i >= 0 {
			p = partners[i]
		}
		ms, err := c.Members(p)
		if err != nil {
			return nil, err
		}
		if slices.Contains(merged, ms[0]) {
			continue // p's cluster is already absorbed
		}
		for _, m := range ms {
			for _, prev := range merged {
				if prev.Src == m.Src {
					return nil, fmt.Errorf("%w: tuples %d and %d of source %q would join one cluster",
						ErrUniqueness, prev.Idx, m.Idx, srcName(m.Src))
				}
			}
			merged = append(merged, m)
		}
	}
	SortNodes(merged)
	return merged, nil
}
