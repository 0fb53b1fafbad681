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
// The pair-table seam (Pairs, PairTab, PairStats, Caps.HotPairs) has one
// implementation, NewPairs, resident, which both backends return and the
// hub never calls: the benchmark's tracer decorates it, and it goes with
// that decorator (ROADMAP item 11).
//
// Concurrency contract: Clusters readers (Read, Window, Has, Merged,
// Stats) may run concurrently with each other and with the single
// mutator. Read is the point read and may move tier state (a paging
// backend promotes what it serves); Window is the enumeration's read and
// moves none: it answers a run of one source's nodes — a paging backend
// from one committed state, in one hold of its lock — reads only the
// bodies the walk needs, and decodes them into memory the caller owns. Mutations (Publish) and writer-side reads (Members,
// CheckMerge) are serialized by the hub's commit lock; backends may rely
// on at most one of these running at a time. Slices returned by Read
// and Members, and the resident sets a Window hands out, are immutable
// once returned — callers must not modify them, and backends must never
// mutate a slice they have handed out, even after the record is
// superseded or evicted. A set a Window decoded lives in its caller's
// arena, the caller's until it reads the next window.
package store

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

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

	// Window reads the nodes (w.Src, w.Lo) … (w.Src, w.Hi-1) into
	// w.Got without moving tier state: at every node whether it has a
	// record, the record's first member and, when the record is resident,
	// its member set. A cold record's body is read, into w.Arena, where
	// the walk needs it (Window.Needs) and nowhere else. A paging backend
	// answers every node of a window from one committed state; every
	// backend keeps Publish's later-member rule within a window and
	// across windows: once a node has shown a record, every later member
	// shows it or a newer one. A failed body read is returned, and
	// leaves the tier as it was; every node the window answers still
	// holds what the index says, and a node whose body was not read
	// holds no set. Safe for concurrent use, each caller with its own
	// Window.
	Window(w *Window) error

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

// WindowNodes bounds a Window: the most nodes one read answers, and so
// the longest a paging backend holds its lock for one.
const WindowNodes = 256

// Window is one windowed read of the cluster store (Clusters.Window).
// The caller fills in the request — the nodes, the walk's cut, whether
// leads want their bodies — and owns the rest: it reuses one Window from
// window to window, and what a read put in Got and Arena is valid until
// the next read into the same Window.
type Window struct {
	Src, Lo, Hi int   // the nodes (Src, Lo) … (Src, Hi-1); Hi-Lo ≤ WindowNodes
	Cut         []int // the walk's cut: a committed length per source
	Leads       bool  // read the bodies of cold records a node of the window leads

	Got   [WindowNodes]Slot // Got[i] is node (Src, Lo+i)
	Arena []Node            // the decoded bodies Got points into
}

// Slot is what a window read found at one node.
type Slot struct {
	First   Node   // the record's first member
	Members []Node // the record's member set, when resident or read; else nil
	OK      bool   // the node has a record
}

// InCut reports whether m lies inside the window's cut.
func (w *Window) InCut(m Node) bool {
	return m.Src < len(w.Cut) && m.Idx < w.Cut[m.Src]
}

// Needs reports whether the walk needs the body of n's record, whose
// first member is first: a lead's when w.Leads asks for them, and a
// non-lead's whose first member lies outside the cut, so that the lead
// inside it has to be found among the members. A non-lead whose first
// member is inside the cut is emitted at that member, and needs nothing.
func (w *Window) Needs(n, first Node) bool {
	if first == n {
		return w.Leads
	}
	return !w.InCut(first)
}

// PairTab is the portable state of one pair's matching table: its pairs
// in commit order and the side lengths it was computed over. The hub
// keeps every table resident and saves none here; see the package
// comment.
type PairTab struct {
	Pairs      []match.Pair
	RLen, SLen int
}

// PairStats describes the pair store's contents and traffic.
type PairStats struct {
	Spilled int   // pair tables currently held by the store
	Spills  int64 // Save calls
	PageIns int64 // Load calls that found a table
}

// Pairs is the per-pair matching-table store, kept only for the
// benchmark's tracer (ROADMAP item 11): the hub never calls it, and
// NewPairs is its one implementation.
type Pairs interface {
	// Save stores the pair table for link ordinal id, replacing any
	// previous save.
	Save(id int, tab PairTab) error

	// Load returns the most recently saved table for id. Loading an
	// id that was never saved is an error.
	Load(id int) (PairTab, error)

	// Stats snapshots the store's occupancy and traffic counters.
	Stats() PairStats
}

// NewPairs returns an empty resident pair store. It copies the pairs of
// a table it saves and of a table it loads, so neither side aliases the
// other's slice.
func NewPairs() Pairs { return &pairs{} }

// pairs holds saved tables in a map behind a mutex. The hub never saves
// one, so in production the map is never made.
type pairs struct {
	//entitylint:lock rank=110
	mu   sync.Mutex
	tabs map[int]PairTab
	st   PairStats
}

func (p *pairs) Save(id int, tab PairTab) error {
	tab.Pairs = slices.Clone(tab.Pairs)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tabs == nil {
		p.tabs = map[int]PairTab{}
	}
	if _, ok := p.tabs[id]; !ok {
		p.st.Spilled++
	}
	p.tabs[id] = tab
	p.st.Spills++
	return nil
}

func (p *pairs) Load(id int) (PairTab, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	tab, ok := p.tabs[id]
	if !ok {
		return PairTab{}, fmt.Errorf("store: pair %d not saved", id)
	}
	p.st.PageIns++
	tab.Pairs = slices.Clone(tab.Pairs)
	return tab, nil
}

func (p *pairs) Stats() PairStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st
}

// Caps is the disk backend's residency budget: it evicts cluster
// records past HotClusterEntries. HotPairs is read by nothing, since no
// backend tiers a pair; it goes with the pair seam (ROADMAP item 11).
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
