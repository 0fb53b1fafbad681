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
	"sort"
	"strconv"

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

// Member is one tuple of one cluster.
type Member struct {
	Source string
	Index  int
	Tuple  relation.Tuple
}

// Cluster is one global entity: its members across sources, sorted by
// (source registration order, tuple position). ID is derived from the
// smallest member, so it is stable under any insert order producing the
// same partition.
type Cluster struct {
	ID      string
	Members []Member
}

// member materialises a node from its source's published view.
func (t *topoView) member(n node) Member {
	s := t.sources[n.Src]
	return Member{Source: s.name, Index: n.Idx, Tuple: s.view.Load().tuples[n.Idx]}
}

// materialize builds the Cluster over a sorted member set, for readers
// and for the commit path's receipt alike: each member's tuple comes
// from its source's published view, which is guaranteed to cover the
// member because views are published before the cluster record that
// references them (on the commit path too). A record can also
// name a source registered *after* the caller's topo snapshot was
// taken (the topology only grows, and the record was published after
// the source), so the snapshot is upgraded on demand — the current
// topo is always at least as new as any record already read. Lock-free.
// The cluster owns its Members.
func (h *Hub) materialize(t *topoView, members []node) Cluster {
	return h.materializeInto(make([]Member, 0, len(members)), t, members)
}

// materializeInto is materialize over the caller's member buffer, which
// it reuses from the start: the walk's one Members slice for all the
// clusters it hands out.
func (h *Hub) materializeInto(buf []Member, t *topoView, members []node) Cluster {
	for _, m := range members {
		if m.Src >= len(t.sources) {
			t = h.topo.Load()
			break
		}
	}
	c := Cluster{ID: nodeID(t, members[0]), Members: buf[:0]}
	for _, m := range members {
		c.Members = append(c.Members, t.member(m))
	}
	return c
}

// nodeID renders a node as "source/index" — the ID of the cluster it
// leads and the cursor that resumes a walk after it — in one
// allocation: the digits go to the stack, and a conversion that only
// feeds a concatenation copies nothing.
func nodeID(t *topoView, n node) string {
	var digits [20]byte
	return t.sources[n.Src].name + "/" + string(strconv.AppendInt(digits[:0], int64(n.Idx), 10))
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
	return h.materialize(t, ms), nil
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
	return len(t.sources[si].view.Load().tuples), nil
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
	if idx < 0 || idx >= len(t.sources[si].view.Load().tuples) {
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
			vals = append(vals, m.Tuple[s.rel.Schema().Index(attr)])
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
		st.Matches += p.fed.MT().Len()
	}
	h.commitMu.Unlock()
	h.mu.RUnlock()
	// Load merged before the views: views only grow, so the difference
	// can transiently overcount clusters but never go negative.
	merged := h.clusters.Merged()
	t := h.topo.Load()
	for _, s := range t.sources {
		st.Tuples += len(s.view.Load().tuples)
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
