// The read side: point reads (Lookup, ClusterAt) resolve the topology
// through an atomically published snapshot, the tuple store through
// per-source published views, and the cluster partition through the
// storage backend's cluster-record store — no read path takes the commit
// lock or any hub-global exclusive lock, so reads proceed concurrently
// with each other and with commits. Cluster enumeration streams
// (iter.go) instead of materialising the hub under a lock.
package hub

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"entityid/internal/relation"
	"entityid/internal/resolve"
	"entityid/internal/schema"
	"entityid/internal/store"
	"entityid/internal/value"
)

// ErrNotFound matches (errors.Is) a read refused because it names
// something the hub does not hold: an unknown source, a key or position
// no tuple has. Any other read error is the storage backend's.
var ErrNotFound = errors.New("hub: not found")

// notFound is an ErrNotFound refusal in the words it has always had.
type notFound string

func (e notFound) Error() string        { return string(e) }
func (e notFound) Is(target error) bool { return target == ErrNotFound }

func unknownSource(source string) error {
	return notFound(fmt.Sprintf("hub: unknown source %q", source))
}

// Member is one tuple of one cluster, read where it lies: row row of
// rows, its source's published rows — a view's, which never change, so a
// member reads the same however long it is kept. A hub's member lies at
// its Index; one a caller builds (MemberOf) lies in rows of its own.
type Member struct {
	Source string
	Index  int
	rows   *relation.Rows
	row    int
}

// MemberOf returns the member at position index of source whose tuple
// is t: a cluster a caller builds of its own tuples, to render or merge
// what no hub holds.
func MemberOf(source string, index int, t relation.Tuple) Member {
	rows := relation.RowsOf(t)
	return Member{Source: source, Index: index, rows: &rows}
}

// String prints the member as its fields: source, index and tuple.
func (m Member) String() string {
	return fmt.Sprintf("{%s %d %v}", m.Source, m.Index, m.Tuple())
}

// Tuple builds the member's tuple, a slice of its own.
func (m Member) Tuple() relation.Tuple {
	return m.rows.TupleInto(nil, m.row)
}

// Row returns the rows the member lies in and its row: what a renderer
// reads cell by cell (relation.Rows.AppendRowJSON) with no tuple built.
// The rows are read-only.
func (m Member) Row() (*relation.Rows, int) {
	return m.rows, m.row
}

// Cluster is one global entity: its members across sources, sorted by
// (source registration order, tuple position). ID is derived from the
// smallest member, so it is stable under any insert order producing the
// same partition.
type Cluster struct {
	ID      string
	Members []Member
}

// Clone returns a copy of the cluster with Members of its own, which no
// walk writes over. It is how a caller keeps a cluster a walk lends.
func (c Cluster) Clone() Cluster {
	return Cluster{ID: c.ID, Members: slices.Clone(c.Members)}
}

// materialize appends to buf the members of a sorted member set, for
// readers and for the commit path's receipt alike: each member lies in
// its source's published view, which is guaranteed to cover the member
// because views are published before the cluster record that references
// them (on the commit path too). A record can also name a source
// registered *after* the caller's topo snapshot was taken (the topology
// only grows, and the record was published after the source), so the
// snapshot is upgraded on demand — the current topo is always at least
// as new as any record already read. Lock-free, and it builds nothing: a
// member is its view's rows and its row.
//
//entitylint:hotpath nolock,noobs,noio
func (h *Hub) materialize(buf []Member, t *topoView, members []node) []Member {
	for _, m := range members {
		if m.Src >= len(t.sources) {
			t = h.topo.Load()
			break
		}
	}
	for _, m := range members {
		s := t.sources[m.Src]
		buf = append(buf, Member{Source: s.name, Index: m.Idx, rows: &s.view.Load().rows, row: m.Idx})
	}
	return buf
}

// idBlock is where the cluster IDs and cursors a read hands out are cut
// from, as a relation cuts its strings from a strings.Builder: a Builder
// never writes over what it holds, so an ID cut from it stays as it was,
// and a walk pays one allocation a block of IDs, not one an ID. size is
// the block to start when an ID does not fit: 0 for a point read, which
// cuts one ID from a block of its own.
type idBlock struct {
	b    strings.Builder
	size int
}

// walkIDBlock is the block a walk starts for its IDs: a few hundred.
const walkIDBlock = 4 << 10

// id renders node n as "source/index" — the ID of the cluster it leads
// and the cursor that resumes a walk after it — into the block.
//
//entitylint:hotpath nolock,noobs,noio
func (ib *idBlock) id(t *topoView, n node) string {
	name := t.sources[n.Src].name
	if need := len(name) + 1 + 20; ib.b.Cap()-ib.b.Len() < need {
		ib.b = strings.Builder{}
		ib.b.Grow(max(ib.size, need))
	}
	start := ib.b.Len()
	ib.b.WriteString(name)
	ib.b.WriteByte('/')
	var digits [20]byte
	ib.b.Write(strconv.AppendInt(digits[:0], int64(n.Idx), 10))
	return ib.b.String()[start:]
}

// cluster is the Cluster over a sorted member set, which owns its ID and
// its Members: a point read's and a receipt's.
func (h *Hub) cluster(buf []Member, t *topoView, members []node) Cluster {
	var ids idBlock
	return Cluster{ID: ids.id(t, members[0]), Members: h.materialize(buf, t, members)}
}

// clusterRead resolves and materialises node n's cluster on the read
// side: one store read around the record lookup (paging a cold record
// in on the disk backend), then lock-free tuple access. The member set
// is immutable, so it is always a committed partition state — never
// torn mid-merge.
func (h *Hub) clusterRead(t *topoView, n node) (Cluster, error) {
	ms, err := h.clusters.Read(n)
	if err != nil {
		return Cluster{}, err
	}
	if ms == nil {
		ms = []node{n}
	}
	return h.cluster(make([]Member, 0, len(ms)), t, ms), nil
}

// SourceNames lists the registered sources in registration order.
func (h *Hub) SourceNames() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]string, len(h.sources))
	for i, s := range h.sources {
		out[i] = s.name
	}
	return out
}

// SourceSchema returns a source's schema, resolved through the
// published topology snapshot: no hub-global lock.
func (h *Hub) SourceSchema(source string) (*schema.Schema, error) {
	t := h.topo.Load()
	si, ok := t.byName[source]
	if !ok {
		return nil, unknownSource(source)
	}
	return t.sources[si].rel.Schema(), nil
}

// SourceLen returns a source's current committed tuple count.
//
//entitylint:hotpath nolock,noobs,noio
func (h *Hub) SourceLen(source string) (int, error) {
	t := h.topo.Load()
	si, ok := t.byName[source]
	if !ok {
		return 0, unknownSource(source)
	}
	return t.sources[si].view.Load().rows.Len(), nil
}

// Lookup finds a source tuple by its primary-key values and returns its
// cluster. It is a point read: the source's key lock shared for the key
// probe, one index probe for the cluster record (lock-free on the
// resident store) — no hub-global lock, so lookups scale with readers
// and proceed during ingest.
//
//entitylint:hotpath noobs
func (h *Hub) Lookup(source string, key ...value.Value) (Cluster, error) {
	t := h.topo.Load()
	si, ok := t.byName[source]
	if !ok {
		return Cluster{}, unknownSource(source)
	}
	src := t.sources[si]
	src.keyMu.RLock()
	idx := src.rel.LookupKey(key...)
	src.keyMu.RUnlock()
	if idx < 0 {
		return Cluster{}, notFound(fmt.Sprintf("hub: source %q: no tuple with key %v", source, key))
	}
	return h.clusterRead(t, node{Src: si, Idx: idx})
}

// ClusterAt returns the cluster of the tuple at a source position — a
// point read, like Lookup.
//
//entitylint:hotpath noobs
func (h *Hub) ClusterAt(source string, idx int) (Cluster, error) {
	t := h.topo.Load()
	si, ok := t.byName[source]
	if !ok {
		return Cluster{}, unknownSource(source)
	}
	if idx < 0 || idx >= t.sources[si].view.Load().rows.Len() {
		return Cluster{}, notFound(fmt.Sprintf("hub: source %q: no tuple %d", source, idx))
	}
	return h.clusterRead(t, node{Src: si, Idx: idx})
}

// MergedEntity is a cluster's single merged record: one value per
// integrated attribute, resolved across the member tuples.
type MergedEntity struct {
	Cluster Cluster
	// Values maps integrated attribute names to the merged value.
	Values map[string]value.Value
	// Conflicts lists the integrated attributes whose member values
	// disagreed (empty under resolve.Strict, which fails instead).
	Conflicts []string
}

// Merged resolves a cluster into one record per integrated attribute
// (§2's attribute-value-conflict resolution, lifted from two sides to N
// members via resolve.Reduce). Member values are folded in member
// order; attributes no member models stay NULL and are omitted.
func (h *Hub) Merged(c Cluster, strategy resolve.Strategy) (*MergedEntity, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := &MergedEntity{Cluster: c, Values: map[string]value.Value{}}
	attrs := map[string]bool{}
	for _, m := range c.Members {
		si, ok := h.byName[m.Source]
		if !ok {
			return nil, fmt.Errorf("hub: unknown source %q", m.Source)
		}
		for name := range h.sources[si].attrOf {
			attrs[name] = true
		}
	}
	names := make([]string, 0, len(attrs))
	for name := range attrs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		vals := make([]value.Value, 0, len(c.Members))
		for _, m := range c.Members {
			s := h.sources[h.byName[m.Source]]
			attr, ok := s.attrOf[name]
			if !ok {
				continue
			}
			vals = append(vals, m.rows.At(m.row, s.rel.Schema().Index(attr)))
		}
		v, conflicted, err := resolve.Reduce(strategy, vals...)
		if err != nil {
			return nil, fmt.Errorf("hub: merge %q: %w", name, err)
		}
		if conflicted {
			out.Conflicts = append(out.Conflicts, name)
		}
		if !v.IsNull() {
			out.Values[name] = v
		}
	}
	return out, nil
}

// Stats summarises the hub for serving and monitoring.
type Stats struct {
	Sources  int
	Pairs    int
	Tuples   int
	Matches  int
	Clusters int
}

// Stats counts sources, links, tuples, pairwise matches and clusters.
// It is O(sources+pairs) and never scans the hub: the matching-table
// lengths are read under the commit lock, so Stats waits for at most one
// commit and holds the lock for O(pairs); tuple counts come from the
// published views and the cluster count from the store's running merge
// counter. Under concurrent ingest the counters are each individually
// accurate but may straddle a commit; at quiescence they are exact.
func (h *Hub) Stats() Stats {
	h.mu.RLock()
	st := Stats{Sources: len(h.sources), Pairs: len(h.pairs)}
	h.commitMu.Lock()
	for _, p := range h.pairs {
		st.Matches += p.res.MT.Len()
	}
	h.commitMu.Unlock()
	h.mu.RUnlock()
	// Load merged before the views: views only grow, so the difference
	// can transiently overcount clusters but never go negative.
	merged := h.clusters.Merged()
	t := h.topo.Load()
	for _, s := range t.sources {
		st.Tuples += s.view.Load().rows.Len()
	}
	st.Clusters = st.Tuples - int(merged)
	return st
}

// StoreInfo describes the active storage backend and its cluster tier,
// for /readyz and benchmark reporting.
type StoreInfo struct {
	Backend  string
	Clusters store.ClusterStats
}

// StoreInfo snapshots the backend's tier state. Lock-free.
func (h *Hub) StoreInfo() StoreInfo {
	return StoreInfo{Backend: h.backend.Name(), Clusters: h.clusters.Stats()}
}
