// Package hub generalizes pairwise identification (match) to N
// autonomous sources: the multi-database integration the paper frames
// in §1, where "a federated system" integrates "a number of autonomous
// databases" and entity identification is the prerequisite for every
// cross-database operation.
//
// A Hub registers named sources and links source pairs, each link
// carrying its own attribute correspondences, extended key, ILFDs and
// rules — pairwise knowledge stays pairwise, exactly as autonomous
// administration implies. Every link has a live match.Result, built and
// verified on Link and grown by every insert past §3.2's insertion guard
// (match.Result.Identify); the hub folds the pairwise matching tables
// into global entity clusters (cluster.go), lifting the §3.2 uniqueness
// constraint transitively: a cluster may hold at most one tuple per
// source, and an insert whose pairwise matches would merge two tuples
// of one source is rejected with every pairwise state rolled back
// (nothing was committed), preserving §3.3 monotonicity — clusters
// only ever grow or merge.
//
// Ownership: a source's tuples live once, in the hub's canonical
// relation (sourceState.rel). Every pair of the source borrows that
// relation — it is never cloned on Link, insert or snapshot load. What
// is derived from it is kept once per knowledge, not once per pair: the
// source keeps one image (match.Image) for each distinct way its links
// fill it — its renames and the ILFDs that can fire on it — holding per
// tuple the cells those ILFDs derived and an entry in each
// probe index some pairing joins on, and
// every pair whose side agrees reads that image (on a full mesh of K
// sources over one ILFD family, one image per source, not K − 1). A pair
// keeps its matching-table entries. The source's candidate keys are
// guarded here and nowhere else, once: the relation admits the tuple
// before the WAL append (relation.Admit — shape, keys), and the
// canonical insert after it files the tuple under the key hashes the
// admission was reached on, however many sources are linked. An image is
// an image relation over the canonical one (relation.NewImage), and a
// pair's R′/S′ a view of it in the pair's columns (relation.NewView):
// indexed under no key of their own, row i is tuple i of the source
// where it lies plus what was derived for it. That an image
// agrees with its source tuple wherever that tuple is not NULL — all
// §4.2 asks of R′ — holds by construction (relation.Adopt refuses
// anything else); what CheckInvariants holds is that the two are equally
// long. No index anywhere keys on bytes: each files positions under a
// hash and the reader verifies the candidate, value by value
// (relation.PosIndex), so no byte a tuple may hold can make two keys one.
//
// Ingest (commit.go, pipeline.go) and reads (read.go, iter.go) describe
// themselves where they live; this file is the topology.
//
// Storage is a seam (internal/store): the hub talks to a pluggable
// Backend for cluster records. The default mem backend keeps every
// record resident; the disk backend bounds resident memory by spilling
// cold cluster records and paging them back on demand. A pair's matching
// result is resident for the pair's life on either backend: every insert
// is identified against every pair of its source, so uniform ingest
// keeps every pair hot and a pair tier would rebuild one per insert.
package hub

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/relation"
	"entityid/internal/rules"
	"entityid/internal/store"
	"entityid/internal/store/mem"
)

// PairSpec configures the identification link between two registered
// sources: the per-pair knowledge a DBA supplies. Attrs maps integrated
// attribute names onto the two sources (AttrMap.R addresses Left,
// AttrMap.S addresses Right).
type PairSpec struct {
	Left, Right string
	Attrs       []match.AttrMap
	ExtKey      []string
	ILFDs       ilfd.Set
	Identity    []rules.IdentityRule
	Distinct    []rules.DistinctnessRule
}

// sourceState is one registered source: the hub-owned canonical
// relation — the only copy of the source's tuples, lent to every pair
// of the source — plus the links that involve it.
type sourceState struct {
	id   int
	name string
	//entitylint:published
	rel *relation.Relation
	//entitylint:published
	pairs []*pairState
	// images are the source's images (match.Image), one per knowledge its
	// links give it: a pair whose side agrees with another pair's on what
	// fills it reads the image that pair reads.
	//entitylint:published
	images []*match.Image
	// runKeys and runN are the open commit run's accepted tuples of the
	// source (commit.go): their candidate-key hashes and their count.
	// Empty between runs; the commit lock guards them.
	runKeys []uint64
	runN    int
	// attrOf maps integrated attribute names (from the pair specs) to
	// this source's attribute names, for the merged cross-source view.
	attrOf map[string]string
	// keyMu guards the relation's key index for point lookups: Lookup
	// takes it shared, and the commit path wraps rel.Insert plus the
	// view republication in it exclusively — so a key hit is always
	// covered by the view a reader loads afterwards.
	//entitylint:lock rank=60
	keyMu sync.RWMutex
	// view is the published snapshot of the committed tuples. Rows are
	// immutable once filed and the prefix a view exposes is never
	// rewritten, so readers materialise members lock-free from it.
	//entitylint:published
	view atomic.Pointer[tupleView]
}

// tupleView is one source's committed-tuple snapshot: every row of rows
// is committed and immutable. Republished on every commit.
type tupleView struct {
	rows relation.Rows
}

// publishView re-publishes the source's committed tuples. Callers hold
// the commit lock (and keyMu exclusively on the insert path).
//
//entitylint:publishes
func (s *sourceState) publishView() {
	s.view.Store(&tupleView{rows: s.rel.Rows()})
}

// topoView is the read-path snapshot of the source topology, published
// atomically by AddSource so point reads resolve source names without
// touching the topology lock.
type topoView struct {
	sources []*sourceState
	byName  map[string]int
}

// pairState is one link: its live matching result and the spec,
// retained for snapshots and the WAL. res is set once, under h.mu
// exclusively — by Link, or by Open once the log is read — with img,
// where the left and the right source keep the result's two images; the
// result is identified against (in sc) and grows only under the commit
// lock, which is what reads its matching table.
type pairState struct {
	id          int
	left, right int
	//entitylint:published
	res  *match.Result
	sc   match.Scratch
	img  [2]int
	spec PairSpec
	// runPrints[n] and runN[n] are the open commit run's accepted tuples
	// on side n (0 left): their probe footprints (match.Result.Footprint)
	// and their count. Empty between runs; the commit lock guards them.
	runPrints [2][]uint64
	runN      [2]int
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
	// commitMu serialises commits: an insert admits, identifies, checks
	// and applies under it, so the hub has exactly one mutator at a time.
	// Point reads and walks never take it — they go through the
	// per-source views and the store's Read path.
	//entitylint:lock rank=50
	commitMu sync.Mutex
	// run is the commit run's working memory (commit.go), reused from
	// run to run under the commit lock.
	run runState
	// backend is the storage layer (internal/store); clusters is its
	// cluster-record store, cached because every commit and point read
	// touches it.
	//entitylint:published
	backend store.Backend
	//entitylint:published
	clusters store.Clusters
	// per is the log writer (wallog.go); nil for a memory-only hub.
	// Mutators append to the write-ahead log before committing, so a
	// crash can lose an unacknowledged insert but never resurrect a
	// rejected one or tear a committed one. snap (snapwriter.go) and
	// prober (degraded.go) are the two other things a durable hub runs;
	// Open sets all three or none.
	per    *walLogger
	snap   *snapshotter
	prober *prober
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
	h := &Hub{byName: map[string]int{}, backend: b, clusters: b.Clusters()}
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
// hub takes ownership of rel, which becomes the source's canonical
// relation (pass an empty one to start blank): the caller must not use
// it afterwards. Open registers through here too, with no logger
// attached — the relation it hands over was just built from persisted
// records and lives nowhere else.
//
//entitylint:commitpath
func (h *Hub) AddSource(name string, rel *relation.Relation) error {
	if name == "" {
		return fmt.Errorf("hub: empty source name")
	}
	if rel == nil {
		return fmt.Errorf("hub: source %q: nil relation", name)
	}
	if err := h.healthErr(); err != nil {
		return fmt.Errorf("hub: source %q: %w", name, err)
	}
	var t relation.Tuple
	for i := range rel.Len() {
		t = rel.TupleInto(t, i)
		if err := checkUTF8(rel.Schema(), t); err != nil {
			return fmt.Errorf("hub: source %q: seed tuple %d: %w", name, i, err)
		}
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
	s := &sourceState{id: len(h.sources), name: name, rel: rel, attrOf: map[string]string{}}
	s.publishView()
	h.sources = append(h.sources, s)
	h.byName[name] = s.id
	h.publishTopo()
	return nil
}

// Link registers the identification link between two sources and
// builds its matching result from the sources' current contents. The
// initial matching table must verify pairwise (buildPair fails closed)
// and fold into the global clusters without a transitive uniqueness
// violation; on any failure the hub is unchanged.
func (h *Hub) Link(spec PairSpec) error {
	if err := h.healthErr(); err != nil {
		return fmt.Errorf("hub: link %q-%q: %w", spec.Left, spec.Right, err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	li, ri, err := h.resolveLinkLocked(spec)
	if err != nil {
		return err
	}
	cfg := h.matchConfig(li, ri, spec)
	var imgs [2]*match.Image
	var fresh [2]bool
	for n, si := range []int{li, ri} {
		if imgs[n], fresh[n], err = imageFor(h.sources[si].images, cfg, n == 0); err != nil {
			return fmt.Errorf("hub: link %q-%q: %w", spec.Left, spec.Right, err)
		}
	}
	for n := 1; n >= 0; n-- { // S′ first, as Build extends
		if !fresh[n] {
			continue
		}
		if _, err := imgs[n].Grow(); err != nil {
			return fmt.Errorf("hub: link %q-%q: %w", spec.Left, spec.Right, err)
		}
	}
	res, err := buildPair(cfg, imgs[0], imgs[1])
	if err != nil {
		return fmt.Errorf("hub: link %q-%q: %w", spec.Left, spec.Right, err)
	}
	if err := h.registerLinkLocked(spec, li, ri, res); err != nil {
		res.Release()
		return err
	}
	return nil
}

// buildPair is a pair's batch identification on the images r and s —
// Link's and recovery's — and the §3.2 check of its table: a table that
// does not verify is refused, and the indexes the build made on the
// images are given back.
func buildPair(cfg match.Config, r, s *match.Image) (*match.Result, error) {
	res, err := match.BuildOn(cfg, r, s)
	if err != nil {
		return nil, err
	}
	if err := res.Verify(); err != nil {
		res.Release()
		return nil, err
	}
	return res, nil
}

// imageFor returns the image that serves the left or right side of cfg:
// one of have, the images the side's source keeps, if one agrees with the
// side on its knowledge, else a new one — fresh, not extended yet, kept
// nowhere.
func imageFor(have []*match.Image, cfg match.Config, left bool) (im *match.Image, fresh bool, err error) {
	if im, err = match.NewImage(cfg, left); err != nil {
		return nil, false, err
	}
	for _, h := range have {
		if h.Same(im) {
			return h, false, nil
		}
	}
	return im, true, nil
}

// matchConfig builds a pair's matching configuration over the hub's
// canonical relations — the single place the PairSpec→match.Config
// mapping lives, shared by live linking and recovery so they can never
// diverge on a knob. The relations are lent, not copied: every pair of a
// source reads the one canonical relation, and Identify/Append never
// write it.
func (h *Hub) matchConfig(li, ri int, spec PairSpec) match.Config {
	return match.Config{
		R:        h.sources[li].rel,
		S:        h.sources[ri].rel,
		Attrs:    spec.Attrs,
		ExtKey:   spec.ExtKey,
		ILFDs:    spec.ILFDs,
		Identity: spec.Identity,
		Distinct: spec.Distinct,
	}
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
// over the stored clusters and commits the registration. The fold reads
// the store only for the nodes the table touches, and all of it before
// the WAL append — the registration cannot fail once logged; on a
// uniqueness violation nothing is logged or published. Only the
// components the table grew are published, each once. Callers hold h.mu
// exclusively.
//
//entitylint:commitpath
func (h *Hub) registerLinkLocked(spec PairSpec, li, ri int, res *match.Result) error {
	h.commitMu.Lock()
	defer h.commitMu.Unlock()
	grown, _, err := foldTables(h.sourceLens(), []linkTable{{left: li, right: ri, mt: res.MT}}, h.clusters, h.sourceName)
	if err != nil {
		return fmt.Errorf("hub: %w", err)
	}
	if h.per != nil {
		if err := h.per.appendLink(spec); err != nil {
			return fmt.Errorf("hub: link %q-%q: %w", spec.Left, spec.Right, h.ingestFailed(err))
		}
	}
	h.addPairLocked(spec, li, ri, res)
	for _, ms := range grown {
		h.clusters.Publish(ms)
	}
	return nil
}

// addPairLocked registers a validated link: Link hands it the result
// whose table it just folded, Open nil — it builds the result once the
// log is read (setResult). Callers hold h.mu exclusively.
func (h *Hub) addPairLocked(spec PairSpec, li, ri int, res *match.Result) {
	left, right := h.sources[li], h.sources[ri]
	p := &pairState{id: len(h.pairs), left: li, right: ri, spec: spec}
	h.pairs = append(h.pairs, p)
	left.pairs = append(left.pairs, p)
	right.pairs = append(right.pairs, p)
	recordAttrNames(left, right, spec.Attrs)
	if res != nil {
		h.setResult(p, res)
	}
}

// setResult hands a pair its matching result and has each of the pair's
// sources keep the result's image of it — once, however many pairs read
// it. Callers hold h.mu exclusively.
func (h *Hub) setResult(p *pairState, res *match.Result) {
	p.res = res
	for n, si := range []int{p.left, p.right} {
		s, im := h.sources[si], res.Image(n == 0)
		k := slices.Index(s.images, im)
		if k < 0 {
			k = len(s.images)
			s.images = append(s.images, im)
		}
		p.img[n] = k
	}
}

// sourceLens returns every source's tuple count. Callers hold h.mu and
// the commit lock.
func (h *Hub) sourceLens() []int {
	lens := make([]int, len(h.sources))
	for i, s := range h.sources {
		lens[i] = s.rel.Len()
	}
	return lens
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
