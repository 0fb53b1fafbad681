// Package hub generalizes the pairwise federation (federate) to N
// autonomous sources: the multi-database integration the paper frames
// in §1, where "a federated system" integrates "a number of autonomous
// databases" and entity identification is the prerequisite for every
// cross-database operation.
//
// A Hub registers named sources and links source pairs, each link
// carrying its own attribute correspondences, extended key, ILFDs and
// rules — pairwise knowledge stays pairwise, exactly as autonomous
// administration implies. Every link has a live federate.Federation;
// the hub folds the pairwise matching tables into global entity
// clusters with a union-find (cluster.go), lifting the §3.2 uniqueness
// constraint transitively: a cluster may hold at most one tuple per
// source, and an insert whose pairwise matches would merge two tuples
// of one source is rejected with every pairwise state rolled back
// (nothing was committed), preserving §3.3 monotonicity — clusters
// only ever grow or merge.
//
// Ownership: a source's tuples live once, in the hub's canonical
// relation (sourceState.rel). Every pairwise federation of the source
// borrows that relation — it is never cloned on Link, insert, page-in
// or snapshot load — and keeps only what it derives from it (extended
// images, probe indexes, matching table). The source's candidate keys
// are guarded here and nowhere else: once by CanInsert before the WAL
// append, once by the canonical Insert after it, however many sources
// are linked.
//
// Ingest is concurrent: Insert prepares the new tuple against every
// pairwise federation of its source (federate's side-effect-free
// Prepare), checks the transitive constraint, and only then commits
// everywhere. Locking is per source, per pair and one commit lock,
// acquired in a fixed order (source → pairs by ordinal → commit), so
// inserts into disjoint regions of the topology proceed in parallel.
// There is one ingest path: Insert is the commit path, IngestStream
// (pipeline.go) runs it over a channel — two goroutines per stream, one
// WAL-encoding ahead of the one that commits, with backpressure — and
// IngestBatch is a slice-in/slice-out wrapper over IngestStream.
//
// Reads scale independently of ingest: point reads (Lookup, ClusterAt)
// resolve the topology through an atomically published snapshot, the
// tuple store through per-source published views, and the cluster
// partition through the storage backend's cluster-record store — no
// read path takes the commit lock or any hub-global exclusive lock, so
// reads proceed concurrently with each other and with commits. Cluster
// enumeration streams (iter.go) instead of materialising the hub under
// a lock.
//
// Storage is a seam (internal/store): the hub talks to a pluggable
// Backend for cluster records and spilled pair tables. The default mem
// backend keeps everything resident; the disk backend bounds resident
// memory by spilling cold cluster records and cold pairwise federations
// and paging them back on demand (see pairFedLocked / maybeSpillPairs
// below for the pair lifecycle the hub drives).
package hub

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"entityid/internal/derive"
	"entityid/internal/federate"
	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/obs"
	"entityid/internal/relation"
	"entityid/internal/resolve"
	"entityid/internal/rules"
	"entityid/internal/schema"
	"entityid/internal/store"
	"entityid/internal/store/mem"
	"entityid/internal/value"
)

// PairSpec configures the identification link between two registered
// sources: the per-pair knowledge a DBA supplies. Attrs maps integrated
// attribute names onto the two sources (AttrMap.R addresses Left,
// AttrMap.S addresses Right).
type PairSpec struct {
	Left, Right  string
	Attrs        []match.AttrMap
	ExtKey       []string
	ILFDs        ilfd.Set
	Identity     []rules.IdentityRule
	Distinct     []rules.DistinctnessRule
	DeriveMode   derive.Mode
	DisableProp1 bool
}

// sourceState is one registered source: the hub-owned canonical
// relation — the only copy of the source's tuples, lent to every
// pairwise federation of the source — plus the links that involve it.
type sourceState struct {
	id   int
	name string
	//entitylint:published
	rel *relation.Relation
	// mu serialises inserts into this source, which keeps tuple
	// positions identical across the canonical relation and the
	// extended image in every pairwise federation of the source.
	//entitylint:lock rank=30
	mu sync.Mutex
	//entitylint:published
	pairs []*pairState
	// attrOf maps integrated attribute names (from the pair specs) to
	// this source's attribute names, for the merged cross-source view.
	attrOf map[string]string
	// keyMu guards the relation's key index for point lookups: Lookup
	// takes it shared, and the commit path wraps rel.Insert plus the
	// view republication in it exclusively — so a key hit is always
	// covered by the view a reader loads afterwards.
	//entitylint:lock rank=60
	keyMu sync.RWMutex
	// view is the published snapshot of the committed tuples. Tuples are
	// immutable once inserted and the slice prefix a view exposes is
	// never rewritten, so readers materialise members lock-free from it.
	//entitylint:published
	view atomic.Pointer[tupleView]
}

// tupleView is one source's committed-tuple snapshot: everything below
// len(tuples) is committed and immutable. Republished on every commit.
type tupleView struct {
	tuples []relation.Tuple
}

// publishView re-publishes the source's committed tuples. Callers hold
// the commit lock (and keyMu exclusively on the insert path).
//
//entitylint:publishes
func (s *sourceState) publishView() {
	s.view.Store(&tupleView{tuples: s.rel.Tuples()})
}

// topoView is the read-path snapshot of the source topology, published
// atomically by AddSource so point reads resolve source names without
// touching the topology lock.
type topoView struct {
	sources []*sourceState
	byName  map[string]int
}

// pairState is one link. The live pairwise federation is held through
// an atomic pointer that is nil while the pair is spilled to the
// backend's pair store: mutators page it back in under mu before
// preparing against it, and snapshot capture reads the pointer
// lock-free (a spilled pair's table is served from the store — see
// copyPairMT). The spec is retained for snapshots and the WAL.
type pairState struct {
	id          int
	left, right int
	// The commit loop acquires several pairs' locks in sequence under
	// the source lock, hence multi.
	//entitylint:lock rank=40 multi
	mu   sync.Mutex
	fed  atomic.Pointer[federate.Federation]
	spec PairSpec
	// mtLen mirrors the federation's matching-table length. It is
	// written under mu + the commit lock (registration and the commit
	// loop) and read under either, so snapshot cuts and Stats see it
	// without paging a cold pair in.
	//entitylint:published
	mtLen int
	// lastUse orders pairs for spill eviction (hub.pairClock ticks).
	lastUse atomic.Int64
}

// Hub is the multi-source federation coordinator.
type Hub struct {
	// mu guards the topology (source and pair registration). Inserts
	// hold it shared; AddSource and Link hold it exclusively. Read paths
	// use the published topo snapshot instead.
	//entitylint:lock rank=20
	mu sync.RWMutex
	//entitylint:published
	sources []*sourceState
	//entitylint:published
	byName map[string]int
	//entitylint:published
	pairs []*pairState
	// topo is the atomically published topology snapshot the read paths
	// resolve source names through. Republished by AddSource.
	//entitylint:published
	topo atomic.Pointer[topoView]
	// commitMu serialises commits: every canonical-relation mutation and
	// every cluster-store publication happens under it, so the cluster
	// store has exactly one mutator at a time. Readers never take it —
	// they go through the per-source views and the store's Read path.
	//entitylint:lock rank=50
	commitMu sync.Mutex
	// backend is the storage layer (internal/store); clusters is its
	// cluster-record store, cached because every commit and point read
	// touches it.
	//entitylint:published
	backend store.Backend
	//entitylint:published
	clusters store.Clusters
	// caps is the backend's residency budget. HotPairs > 0 turns on
	// the pair spill lifecycle below.
	caps store.Caps
	// pairClock ticks lastUse stamps; hotPairs counts resident
	// federations; spillMu serialises spill passes.
	pairClock atomic.Int64
	hotPairs  atomic.Int64
	//entitylint:lock rank=10
	spillMu sync.Mutex
	// per is the durability layer (persist.go); nil for a memory-only
	// hub. Mutators append to the write-ahead log before committing, so
	// a crash can lose an unacknowledged insert but never resurrect a
	// rejected one or tear a committed one.
	per *walLogger
	// health is the degraded-mode state machine (degraded.go): ingest
	// fails fast while the disk is sick, reads keep serving.
	health healthState
}

// New creates an empty hub on the default in-memory backend.
func New() *Hub {
	return NewWithBackend(nil)
}

// NewWithBackend creates an empty hub on the given storage backend
// (nil means a fresh in-memory backend). The hub owns the backend and
// closes it on Close.
func NewWithBackend(b store.Backend) *Hub {
	if b == nil {
		b = mem.New()
	}
	h := &Hub{byName: map[string]int{}, backend: b, clusters: b.Clusters(), caps: b.Caps()}
	h.topo.Store(&topoView{byName: map[string]int{}})
	return h
}

// publishTopo re-publishes the read-path topology snapshot. Callers
// hold h.mu exclusively.
//
//entitylint:publishes
func (h *Hub) publishTopo() {
	t := &topoView{
		sources: append([]*sourceState(nil), h.sources...),
		byName:  make(map[string]int, len(h.byName)),
	}
	for k, v := range h.byName {
		t.byName[k] = v
	}
	h.topo.Store(t)
}

// AddSource registers an autonomous source under a unique name. The
// relation seeds the hub's canonical copy (cloned — later hub inserts
// do not touch the original); pass an empty relation to start blank.
//
//entitylint:commitpath
func (h *Hub) AddSource(name string, rel *relation.Relation) error {
	if err := checkSource(name, rel); err != nil {
		return err
	}
	if err := h.healthErr(); err != nil {
		return fmt.Errorf("hub: source %q: %w", name, err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.byName[name]; dup {
		return fmt.Errorf("hub: source %q already registered", name)
	}
	if h.per != nil {
		if err := h.per.appendAddSource(name, rel); err != nil {
			return fmt.Errorf("hub: source %q: %w", name, h.ingestFailed(err))
		}
	}
	h.registerLocked(name, rel.Clone())
	return nil
}

// addSourceOwned registers a source taking ownership of rel — no clone,
// no write-ahead logging. It is the loader/replay path: the relation
// was just built from persisted records, so cloning it would only
// re-buffer state that already lives nowhere else (the triple-buffered
// load spike this avoids), and logging it would re-log a record being
// replayed.
func (h *Hub) addSourceOwned(name string, rel *relation.Relation) error {
	if err := checkSource(name, rel); err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.byName[name]; dup {
		return fmt.Errorf("hub: source %q already registered", name)
	}
	h.registerLocked(name, rel)
	return nil
}

func checkSource(name string, rel *relation.Relation) error {
	if name == "" {
		return fmt.Errorf("hub: empty source name")
	}
	if rel == nil {
		return fmt.Errorf("hub: source %q: nil relation", name)
	}
	return nil
}

// registerLocked installs rel, which the hub now owns, as the next
// source and publishes it. Callers hold h.mu exclusively and have
// checked the name is free.
func (h *Hub) registerLocked(name string, rel *relation.Relation) {
	id := len(h.sources)
	s := &sourceState{
		id:     id,
		name:   name,
		rel:    rel,
		attrOf: map[string]string{},
	}
	s.publishView()
	h.sources = append(h.sources, s)
	h.byName[name] = id
	h.publishTopo()
}

// Link registers the identification link between two sources and
// builds its pairwise federation from the sources' current contents.
// The initial matching table must verify pairwise (federate.New fails
// closed) and fold into the global clusters without a transitive
// uniqueness violation; on any failure the hub is unchanged.
func (h *Hub) Link(spec PairSpec) error {
	if err := h.healthErr(); err != nil {
		return fmt.Errorf("hub: link %q-%q: %w", spec.Left, spec.Right, err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.linkLocked(spec)
}

// linkLocked implements Link. Callers hold h.mu exclusively.
func (h *Hub) linkLocked(spec PairSpec) error {
	li, ri, err := h.resolveLinkLocked(spec)
	if err != nil {
		return err
	}
	fed, err := federate.New(h.matchConfig(li, ri, spec))
	if err != nil {
		return fmt.Errorf("hub: link %q-%q: %w", spec.Left, spec.Right, err)
	}
	return h.registerLinkLocked(spec, li, ri, fed)
}

// matchConfig builds a pair's matching configuration over the hub's
// canonical relations — the single place the PairSpec→match.Config
// mapping lives, shared by live linking, page-in and snapshot
// restoration so they can never diverge on a knob. The relations are
// lent, not copied: every pair of a source reads the one canonical
// relation, and Prepare/Commit never write it.
func (h *Hub) matchConfig(li, ri int, spec PairSpec) match.Config {
	return match.Config{
		R:            h.sources[li].rel,
		S:            h.sources[ri].rel,
		Attrs:        spec.Attrs,
		ExtKey:       spec.ExtKey,
		ILFDs:        spec.ILFDs,
		Identity:     spec.Identity,
		Distinct:     spec.Distinct,
		DeriveMode:   spec.DeriveMode,
		DisableProp1: spec.DisableProp1,
	}
}

// linkRestored registers a link whose federation was already rebuilt
// and verified (the snapshot loader restores pairwise federations in
// parallel before folding them in sequentially). Callers hold h.mu
// exclusively.
func (h *Hub) linkRestored(spec PairSpec, fed *federate.Federation) error {
	li, ri, err := h.resolveLinkLocked(spec)
	if err != nil {
		return err
	}
	return h.registerLinkLocked(spec, li, ri, fed)
}

// resolveLinkLocked validates a link spec against the topology: both
// sources registered, not self-linked, not already linked, attribute
// names consistent. Callers hold h.mu exclusively.
func (h *Hub) resolveLinkLocked(spec PairSpec) (li, ri int, err error) {
	li, ok := h.byName[spec.Left]
	if !ok {
		return 0, 0, fmt.Errorf("hub: link: unknown source %q", spec.Left)
	}
	ri, ok = h.byName[spec.Right]
	if !ok {
		return 0, 0, fmt.Errorf("hub: link: unknown source %q", spec.Right)
	}
	if li == ri {
		return 0, 0, fmt.Errorf("hub: link: source %q linked to itself", spec.Left)
	}
	for _, p := range h.pairs {
		if (p.left == li && p.right == ri) || (p.left == ri && p.right == li) {
			return 0, 0, fmt.Errorf("hub: link: sources %q and %q already linked", spec.Left, spec.Right)
		}
	}
	// The merged view needs a consistent integrated-name -> source-attr
	// mapping across all links of a source; validate before mutating.
	if err := checkAttrNames(h.sources[li], h.sources[ri], spec.Attrs); err != nil {
		return 0, 0, err
	}
	return li, ri, nil
}

// registerLinkLocked folds a validated link's initial matching table
// into the clusters and commits the registration. Callers hold h.mu
// exclusively.
//
//entitylint:commitpath
func (h *Hub) registerLinkLocked(spec PairSpec, li, ri int, fed *federate.Federation) error {
	left, right := h.sources[li], h.sources[ri]
	// Fold the initial matching table speculatively: seed a scratch
	// union-find with the current clusters of every involved node,
	// check-and-union each pair there, and only publish the merged
	// clusters to the cluster store once every pair proved sound — on
	// failure the store is untouched.
	h.commitMu.Lock()
	defer h.commitMu.Unlock()
	scratch := newClusterSet()
	seeded := map[node]bool{}
	// origLen records each seeded node's pre-link cluster size, so the
	// publish loop below can skip unchanged components without touching
	// the store again (store reads stay ahead of the WAL append — the
	// registration cannot fail once logged).
	origLen := map[node]int{}
	seed := func(n node) error {
		if seeded[n] {
			return nil
		}
		ms, err := h.clusters.Members(n)
		if err != nil {
			return err
		}
		for _, m := range ms {
			seeded[m] = true
			origLen[m] = len(ms)
		}
		for i := 1; i < len(ms); i++ {
			scratch.union(ms[0], ms[i])
		}
		return nil
	}
	for _, pr := range fed.MT().Pairs {
		a, b := node{Src: li, Idx: pr.RIndex}, node{Src: ri, Idx: pr.SIndex}
		if err := seed(a); err != nil {
			return fmt.Errorf("hub: link %q-%q: %w", spec.Left, spec.Right, err)
		}
		if err := seed(b); err != nil {
			return fmt.Errorf("hub: link %q-%q: %w", spec.Left, spec.Right, err)
		}
		if err := store.CheckMerge(scratch, a, []node{b}, h.sourceName); err != nil {
			return fmt.Errorf("hub: link %q-%q: initial pair (%d,%d): %w",
				spec.Left, spec.Right, pr.RIndex, pr.SIndex, err)
		}
		scratch.union(a, b)
	}
	if h.per != nil {
		if err := h.per.appendLink(spec); err != nil {
			return fmt.Errorf("hub: link %q-%q: %w", spec.Left, spec.Right, h.ingestFailed(err))
		}
	}
	p := &pairState{id: len(h.pairs), left: li, right: ri, spec: spec, mtLen: fed.MT().Len()}
	p.fed.Store(fed)
	p.lastUse.Store(h.pairClock.Add(1))
	h.hotPairs.Add(1)
	h.pairs = append(h.pairs, p)
	left.pairs = append(left.pairs, p)
	right.pairs = append(right.pairs, p)
	recordAttrNames(left, right, spec.Attrs)
	// Publish every scratch component that grew past its pre-existing
	// record (a component equal in size to its first member's record is
	// that record — memberships only ever grow).
	byRoot := map[node][]node{}
	for n := range scratch.parent {
		byRoot[scratch.find(n)] = append(byRoot[scratch.find(n)], n)
	}
	for _, ms := range byRoot {
		if len(ms) < 2 {
			continue
		}
		if origLen[ms[0]] == len(ms) {
			continue
		}
		sortNodes(ms)
		h.clusters.Publish(ms)
	}
	return nil
}

// checkAttrNames verifies a link's attribute map agrees with the
// integrated names already established by the sources' other links.
func checkAttrNames(left, right *sourceState, attrs []match.AttrMap) error {
	for _, am := range attrs {
		if am.R != "" {
			if prev, ok := left.attrOf[am.Name]; ok && prev != am.R {
				return fmt.Errorf("hub: link: integrated attribute %q maps to both %q and %q in source %q",
					am.Name, prev, am.R, left.name)
			}
		}
		if am.S != "" {
			if prev, ok := right.attrOf[am.Name]; ok && prev != am.S {
				return fmt.Errorf("hub: link: integrated attribute %q maps to both %q and %q in source %q",
					am.Name, prev, am.S, right.name)
			}
		}
	}
	return nil
}

// recordAttrNames commits a validated link's integrated-name mapping.
func recordAttrNames(left, right *sourceState, attrs []match.AttrMap) {
	for _, am := range attrs {
		if am.R != "" {
			left.attrOf[am.Name] = am.R
		}
		if am.S != "" {
			right.attrOf[am.Name] = am.S
		}
	}
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

// Receipt reports a successful insert: the tuple's position in its
// source, the pairwise matches it produced, and its cluster after the
// insert.
type Receipt struct {
	Source  string
	Index   int
	Matched []Member
	Cluster Cluster
}

// Insert streams one tuple into a source: it is identified against
// every linked source concurrently-safely, and either committed
// everywhere — canonical relation, every pairwise federation, global
// clusters — or rejected everywhere. Rejections (source key violation,
// pairwise §3.2 uniqueness or consistency violation, transitive
// cluster-uniqueness violation) leave the hub exactly as it was.
func (h *Hub) Insert(source string, t relation.Tuple) (*Receipt, error) {
	payload, err := h.walPayload(source, t)
	if err != nil {
		return nil, err
	}
	return h.insertTraced(source, t, payload)
}

// walPayload marshals the write-ahead-log record of an insert on a
// durable hub (nil on a memory-only one) — outside every lock, so the
// append under them is a pure log write.
func (h *Hub) walPayload(source string, t relation.Tuple) ([]byte, error) {
	if h.per == nil {
		return nil, nil
	}
	payload, err := encodeInsert(source, t)
	if err != nil {
		return nil, fmt.Errorf("hub: source %q: %w", source, err)
	}
	return payload, nil
}

// insertTraced is the traced commit path shared by Insert and a
// stream's commit goroutine: health fast path, slow-op tracing, outcome
// counters. payload is walPayload's record for this exact (source,
// tuple).
func (h *Hub) insertTraced(source string, t relation.Tuple, payload []byte) (*Receipt, error) {
	// Degraded/poisoned fast path: fail before taking any lock, so a
	// sick disk turns ingest into an immediate typed rejection instead
	// of a queue behind the failure.
	if err := h.healthErr(); err != nil {
		ingestUnavailable.Inc()
		return nil, fmt.Errorf("hub: source %q: %w", source, err)
	}
	op := obs.StartOp("insert", source)
	rec, err := h.insert(source, t, payload, &op)
	total := op.Finish(SlowOps)
	// Rebalance the resident-pair budget outside every insert lock —
	// a no-op unless the backend caps hot pairs and an insert paged
	// some in.
	h.maybeSpillPairs()
	if err != nil {
		ingestRejected.Inc()
		return nil, err
	}
	ingestOK.Inc()
	mIngestSeconds.Observe(total)
	return rec, nil
}

// insert is Insert's locked body; op marks its commit stages.
//
//entitylint:commitpath
func (h *Hub) insert(source string, t relation.Tuple, payload []byte, op *obs.Op) (*Receipt, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	si, ok := h.byName[source]
	if !ok {
		return nil, fmt.Errorf("hub: unknown source %q", source)
	}
	src := h.sources[si]
	src.mu.Lock()
	defer src.mu.Unlock()
	// Pair locks in ordinal order (source.pairs is ordinal-sorted by
	// construction): fixed acquisition order across all inserts.
	for _, p := range src.pairs {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	if err := src.rel.CanInsert(t); err != nil {
		return nil, fmt.Errorf("hub: source %q: %w", source, err)
	}
	// Page any spilled pairwise federation back in before preparing.
	// Under the pair locks both side relations are frozen, so the
	// restored federation verifies against exactly the lengths it was
	// spilled at (a cold pair implies frozen sides — every mutation of
	// either side pages the pair in first, through this very path).
	for _, p := range src.pairs {
		if _, err := h.pairFedLocked(p); err != nil {
			return nil, fmt.Errorf("hub: source %q: %w", source, err)
		}
		p.lastUse.Store(h.pairClock.Add(1))
	}
	// Phase 1: prepare against every pairwise federation, mutating
	// nothing, collecting the partner tuples the insert would match.
	pendings := make([]*federate.Pending, 0, len(src.pairs))
	var partners []node
	for _, p := range src.pairs {
		var pd *federate.Pending
		var err error
		if p.left == si {
			pd, err = p.fed.Load().PrepareR(t)
		} else {
			pd, err = p.fed.Load().PrepareS(t)
		}
		if err != nil {
			if errors.Is(err, federate.ErrUniqueness) {
				mUniqueness.Inc()
			}
			return nil, fmt.Errorf("hub: source %q vs %q: %w", source, h.sources[p.other(si)].name, err)
		}
		for _, pr := range pd.Pairs() {
			if p.left == si {
				partners = append(partners, node{Src: p.right, Idx: pr.SIndex})
			} else {
				partners = append(partners, node{Src: p.left, Idx: pr.RIndex})
			}
		}
		pendings = append(pendings, pd)
	}
	n := node{Src: si, Idx: src.rel.Len()}
	// Phase 2: transitive uniqueness, then commit everywhere. The check
	// precedes every mutation, so rejection needs no undo; commits
	// cannot fail under the locks held here.
	h.commitMu.Lock()
	defer h.commitMu.Unlock()
	if err := store.CheckMerge(h.clusters, n, partners, h.sourceName); err != nil {
		if errors.Is(err, store.ErrUniqueness) {
			mUniqueness.Inc()
		}
		return nil, fmt.Errorf("hub: source %q: %w", source, err)
	}
	stagePrepare.Observe(op.Stage("prepare"))
	// Write-ahead: the insert reaches the log before any in-memory
	// commit. A failed append rejects the insert with the hub unchanged
	// (at worst a torn, unacknowledged record reaches disk — recovery's
	// CRC check drops it), so replaying the log can never resurrect a
	// rejected insert or observe a torn commit. A persistent failure
	// (ENOSPC, EIO, unusable log) additionally degrades the hub to
	// read-only; the rejection is typed either way.
	if h.per != nil {
		if err := h.per.appendPayload(payload); err != nil {
			return nil, fmt.Errorf("hub: source %q: %w", source, h.ingestFailed(err))
		}
	}
	stageWalAppend.Observe(op.Stage("wal_append"))
	// The one copy of the tuple: the canonical insert and the view
	// republication share the key lock, so a reader whose key lookup
	// finds the new tuple always loads a view that covers it.
	src.keyMu.Lock()
	insErr := src.rel.Insert(t)
	if insErr == nil {
		src.publishView()
	}
	src.keyMu.Unlock()
	if insErr != nil {
		// Unreachable under the locking discipline: the canonical
		// relation refused a tuple CanInsert accepted. The WAL already
		// holds the record, so poison the hub instead of panicking —
		// fail-closed ingest, reads keep serving the published views,
		// restart replays the log into a consistent state.
		return nil, fmt.Errorf("hub: source %q: %w", source,
			h.poison(fmt.Errorf("canonical insert after CanInsert: %v", insErr)))
	}
	// Every pair commits beside it, each checking the relation it
	// borrows is now exactly one tuple ahead of its extended image.
	for i, pd := range pendings {
		prs, err := pd.Commit()
		if err != nil {
			// Same invariant class as above, with in-memory pairwise
			// state torn mid-commit: poison.
			return nil, fmt.Errorf("hub: source %q: %w", source,
				h.poison(fmt.Errorf("pair %d commit after successful prepare: %v", src.pairs[i].id, err)))
		}
		src.pairs[i].mtLen += len(prs)
	}
	stageApply.Observe(op.Stage("apply"))
	members, err := store.Apply(h.clusters, n, partners)
	if err != nil {
		// Practically unreachable: everything Apply folds was paged in
		// resident by CheckMerge (writer-side reads defer eviction to
		// Publish), so Apply performs no I/O. If storage fails here
		// anyway the WAL already holds the record — poison, like the
		// pair-commit case above.
		return nil, fmt.Errorf("hub: source %q: %w", source,
			h.poison(fmt.Errorf("cluster fold after successful check: %v", err)))
	}
	if len(partners) > 0 {
		mClusterMerges.Inc()
	}
	stageClusterFold.Observe(op.Stage("cluster_fold"))
	if h.per != nil {
		h.per.noteCommit(h)
	}
	// Every member's view was published before the cluster record that
	// names it, so the read side's materialiser serves the receipt too.
	topo := h.topo.Load()
	rec := &Receipt{Source: source, Index: n.Idx}
	if len(partners) > 0 {
		rec.Matched = make([]Member, len(partners))
		for i, p := range partners {
			rec.Matched[i] = topo.member(p)
		}
	}
	if members == nil {
		members = []node{n}
	}
	rec.Cluster = h.materialize(topo, members)
	return rec, nil
}

// sourceName renders a source ordinal. Callers hold at least h.mu
// shared.
func (h *Hub) sourceName(si int) string { return h.sources[si].name }

// other returns the pair's counterpart of source ordinal si.
func (p *pairState) other(si int) int {
	if p.left == si {
		return p.right
	}
	return p.left
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
func (h *Hub) materialize(t *topoView, members []node) Cluster {
	for _, m := range members {
		if m.Src >= len(t.sources) {
			t = h.topo.Load()
			break
		}
	}
	c := Cluster{ID: nodeID(t, members[0]), Members: make([]Member, len(members))}
	for i, m := range members {
		c.Members[i] = t.member(m)
	}
	return c
}

// nodeID renders a node as "source/index" — the ID of the cluster it
// leads and the cursor that resumes a walk after it.
func nodeID(t *topoView, n node) string {
	return t.sources[n.Src].name + "/" + strconv.Itoa(n.Idx)
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

// Insert is the unit of IngestBatch.
type Insert struct {
	Source string
	Tuple  relation.Tuple
}

// InsertResult is one IngestBatch outcome, in input order.
type InsertResult struct {
	Receipt *Receipt
	Err     error
}

// IngestBatch is IngestStream for callers that hold the whole batch: it
// streams the items and reports per-item results in input order; a
// rejected item leaves the hub unchanged and does not stop the batch.
// Commits happen strictly in input order, so batch results are
// deterministic, and when the call returns every append the batch made
// is synced per the SyncEvery policy (a stream closes its flush epoch
// before its result channel).
func (h *Hub) IngestBatch(items []Insert) []InsertResult {
	mBatchSize.ObserveVal(int64(len(items)))
	in := make(chan Insert, len(items)) // sized to the sends: filled without a goroutine
	for _, it := range items {
		in <- it
	}
	close(in)
	out := make([]InsertResult, len(items))
	for res := range h.IngestStream(context.Background(), in, StreamOptions{}) {
		out[res.Seq] = InsertResult{Receipt: res.Receipt, Err: res.Err}
	}
	return out
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
		return nil, fmt.Errorf("hub: unknown source %q", source)
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
		return 0, fmt.Errorf("hub: unknown source %q", source)
	}
	return len(t.sources[si].view.Load().tuples), nil
}

// Lookup finds a source tuple by its primary-key values and returns its
// cluster. It is a point read: the source's key lock shared for the key
// probe, one shard lock shared for the cluster record — no hub-global
// lock, so lookups scale with readers and proceed during ingest.
//
//entitylint:hotpath noobs,noio
func (h *Hub) Lookup(source string, key ...value.Value) (Cluster, error) {
	t := h.topo.Load()
	si, ok := t.byName[source]
	if !ok {
		return Cluster{}, fmt.Errorf("hub: unknown source %q", source)
	}
	src := t.sources[si]
	src.keyMu.RLock()
	idx := src.rel.LookupKey(key...)
	src.keyMu.RUnlock()
	if idx < 0 {
		return Cluster{}, fmt.Errorf("hub: source %q: no tuple with key %v", source, key)
	}
	return h.clusterRead(t, node{Src: si, Idx: idx})
}

// ClusterAt returns the cluster of the tuple at a source position — a
// point read, like Lookup.
//
//entitylint:hotpath noobs,noio
func (h *Hub) ClusterAt(source string, idx int) (Cluster, error) {
	t := h.topo.Load()
	si, ok := t.byName[source]
	if !ok {
		return Cluster{}, fmt.Errorf("hub: unknown source %q", source)
	}
	if idx < 0 || idx >= len(t.sources[si].view.Load().tuples) {
		return Cluster{}, fmt.Errorf("hub: source %q: no tuple %d", source, idx)
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
// It is O(sources+pairs): tuple counts come from the published views
// and the cluster count from the store's running merge counter, so
// Stats never scans the hub or blocks ingest. Under concurrent ingest
// the counters are each individually accurate but may straddle a
// commit; at quiescence they are exact.
func (h *Hub) Stats() Stats {
	h.mu.RLock()
	st := Stats{Sources: len(h.sources), Pairs: len(h.pairs)}
	for _, p := range h.pairs {
		p.mu.Lock()
		st.Matches += p.mtLen
		p.mu.Unlock()
	}
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
