package entityid

// The multi-source federation surface: Hub generalizes the pairwise
// System/Federation workflow to N autonomous sources with globally
// consistent entity identities. Register sources, link pairs with
// per-pair knowledge (the same correspondences, extended keys, ILFDs
// and rules a two-relation System takes), then stream inserts; the hub
// maintains one live pairwise federation per link and folds the
// pairwise matching tables into global entity clusters, rejecting — and
// rolling back — any insert whose matches would transitively merge two
// tuples of one source.
//
//	h := entityid.NewHub()
//	h.AddSource("zagat", zagat)
//	h.AddSource("michelin", michelin)
//	h.AddSource("infatuation", infatuation)
//	h.Link(entityid.NewPair("zagat", "michelin").
//	    MapAttr("name", "name", "name").
//	    MapAttr("cuisine", "cuisine", "").
//	    MapAttr("speciality", "", "speciality").
//	    SetExtendedKey("name", "cuisine"))
//	...
//	rec, err := h.Insert("zagat", tuple)
//	cluster, err := h.Lookup("michelin", key...)
//	merged, err := h.Merged(cluster, entityid.MergeCoalesce)
//
// OpenHub returns a durable hub instead: mutations are written ahead
// to a CRC-guarded log under a data directory, background snapshots
// bound the log, and re-opening the directory recovers the exact
// pre-crash state (see Checkpoint and Close).

import (
	"context"

	"entityid/internal/hub"
	"entityid/internal/ilfd"
	"entityid/internal/match"
	"entityid/internal/resolve"
)

// AttrMap places one integrated-world attribute in two relations (the
// building block of PairSpec.Attrs; System.MapAttr constructs them
// internally).
type AttrMap = match.AttrMap

// EntityCluster is one global entity: its member tuples across sources.
type EntityCluster = hub.Cluster

// ClusterMember is one tuple of one cluster: its source, its index, and
// the tuple, built on request (Tuple).
type ClusterMember = hub.Member

// HubReceipt reports a successful hub insert.
type HubReceipt = hub.Receipt

// HubInsert is one item of Hub.IngestBatch.
type HubInsert = hub.Insert

// HubInsertResult is one IngestBatch outcome, in input order.
type HubInsertResult = hub.InsertResult

// HubStreamOptions configures Hub.IngestStream.
type HubStreamOptions = hub.StreamOptions

// HubStreamResult is one Hub.IngestStream outcome, delivered in input
// (Seq) order.
type HubStreamResult = hub.StreamResult

// HubStats summarises a hub.
type HubStats = hub.Stats

// HubHealth is a point-in-time snapshot of a durable hub's health
// state machine: ready (read-write), degraded (read-only while the
// disk is sick, with background recovery probes), or poisoned
// (fail-closed until restart).
type HubHealth = hub.Health

// HubState is the hub's health state.
type HubState = hub.State

// Health states. A persistent I/O failure (ENOSPC, EIO, read-only
// remount) moves a durable hub Ready→Degraded; a successful recovery
// probe moves it back; a commit-path invariant violation moves it to
// the terminal Poisoned state.
const (
	HubReady    = hub.StateReady
	HubDegraded = hub.StateDegraded
	HubPoisoned = hub.StatePoisoned
)

// ErrHubDegraded matches (via errors.Is) every ingest rejection issued
// while the hub is degraded: reads keep serving, writes fail fast
// until the disk heals.
var ErrHubDegraded = hub.ErrDegraded

// ErrHubPoisoned matches every ingest rejection issued after a
// commit-path invariant violation; the hub serves reads but refuses
// writes until a restart replays the log.
var ErrHubPoisoned = hub.ErrPoisoned

// ErrHubNotFound matches a read refused because it names something the
// hub does not hold (an unknown source, a key no tuple has) and
// ErrHubBadCursor a ClustersWalk refused for its cursor; any other error
// out of a read is a storage fault — a record failed to page in.
var (
	ErrHubNotFound  = hub.ErrNotFound
	ErrHubBadCursor = hub.ErrBadCursor
)

// ErrHubInvalidUTF8 matches the refusal of a tuple (inserted, streamed
// or seeded) holding a string that is not valid UTF-8, which the hub's
// log cannot spell; nothing of it was logged or applied.
var ErrHubInvalidUTF8 = hub.ErrInvalidUTF8

// MergedEntity is a cluster's merged cross-source record.
type MergedEntity = hub.MergedEntity

// PairSpec accumulates the identification knowledge for one source
// pair, in the same fluent style as System. Construct with NewPair.
type PairSpec struct {
	inner   hub.PairSpec
	ilfdErr error
}

// NewPair starts a link specification between two registered sources.
// AttrMap entries address Left via their R side and Right via S.
func NewPair(left, right string) *PairSpec {
	return &PairSpec{inner: hub.PairSpec{Left: left, Right: right}}
}

// MapAttr declares an integrated-world attribute and its location in
// the two sources; pass "" for a side that does not model it.
func (p *PairSpec) MapAttr(name, leftAttr, rightAttr string) *PairSpec {
	p.inner.Attrs = append(p.inner.Attrs, match.AttrMap{Name: name, R: leftAttr, S: rightAttr})
	return p
}

// SetExtendedKey declares the pair's extended key (§4.1) over
// integrated attribute names.
func (p *PairSpec) SetExtendedKey(attrs ...string) *PairSpec {
	p.inner.ExtKey = append([]string(nil), attrs...)
	return p
}

// AddILFD registers an instance-level functional dependency for this
// pair.
func (p *PairSpec) AddILFD(f ILFD) *PairSpec {
	p.inner.ILFDs = append(p.inner.ILFDs, f)
	return p
}

// AddILFDText parses and registers an ILFD; a parse error is deferred
// to Hub.Link so the fluent chain stays unbroken.
func (p *PairSpec) AddILFDText(line string) *PairSpec {
	f, err := ilfd.ParseLine(line)
	if err != nil {
		if p.ilfdErr == nil {
			p.ilfdErr = err
		}
		return p
	}
	p.inner.ILFDs = append(p.inner.ILFDs, f)
	return p
}

// AddIdentityRule registers an extra identity rule for this pair.
func (p *PairSpec) AddIdentityRule(r IdentityRule) *PairSpec {
	p.inner.Identity = append(p.inner.Identity, r)
	return p
}

// AddDistinctnessRule registers an extra distinctness rule.
func (p *PairSpec) AddDistinctnessRule(d DistinctnessRule) *PairSpec {
	p.inner.Distinct = append(p.inner.Distinct, d)
	return p
}

// Hub is a live N-source federation: global entity clusters maintained
// over per-pair incremental identification. Safe for concurrent use.
// Obtain one with NewHub.
type Hub struct {
	inner    *hub.Hub
	recovery *HubRecovery
}

// HubRecovery reports what OpenHub reconstructed: snapshot use, the
// replayed log tail, the wall time of each recovery phase, and —
// critically — whether a torn or corrupt log
// tail was detected and dropped (TailDamage). Operators should surface
// TailDamage: it means the last unacknowledged write(s) before a crash
// were discarded.
type HubRecovery = hub.RecoveryInfo

// NewHub creates an empty, memory-only hub. Use OpenHub for a hub
// whose state survives process restarts.
func NewHub() *Hub {
	return &Hub{inner: hub.New()}
}

// HubOption configures OpenHub.
type HubOption func(*hubOptions)

type hubOptions struct {
	snapshotEvery int
	syncEvery     int
	store         string
	hotClusters   int
}

// WithSnapshotEvery sets how many committed inserts elapse between
// background snapshots (each snapshot truncates the write-ahead log it
// covers). 0 disables automatic snapshots: the log grows until
// Checkpoint is called. The default is 1024.
func WithSnapshotEvery(n int) HubOption {
	return func(o *hubOptions) { o.snapshotEvery = n }
}

// WithSyncEvery opts into the group-commit fsync policy: the
// write-ahead log is forced to stable storage after every n appends
// and at every flush epoch of an ingest stream — when its input runs
// empty, and before its result channel closes or IngestBatch returns. This
// bounds what a power-loss crash can take to the last n acknowledged
// mutations, at the cost of an fsync on every n-th commit. 0 (the
// default) leaves durability between snapshots to the OS page cache —
// the right trade when the crash model is process death, not power
// loss.
func WithSyncEvery(n int) HubOption {
	return func(o *hubOptions) { o.syncEvery = n }
}

// WithStore selects the storage backend by name. "mem" (the default)
// keeps every cluster record resident; "disk" bounds the cluster
// records' resident memory by spilling cold ones to a tier under the
// data directory and paging them back on demand. Pairwise federations
// and their matching tables stay resident on both. The empty string
// means "mem". Durability is identical either way — the write-ahead log
// and snapshots — and the served state is bit-for-bit the same; the
// backend only decides which cluster records stay resident.
func WithStore(name string) HubOption {
	return func(o *hubOptions) { o.store = name }
}

// WithStoreBudgets bounds the disk backend's hot cluster tier:
// hotClusterEntries caps the total members across resident cluster
// records; zero keeps the built-in default. The memory backend ignores
// the budget.
func WithStoreBudgets(hotClusterEntries int) HubOption {
	return func(o *hubOptions) { o.hotClusters = hotClusterEntries }
}

// OpenHub opens (or creates) a durable hub rooted at dir. Every
// committed mutation — source registration, pair link, tuple insert —
// is appended to a CRC-guarded write-ahead log before it is applied,
// and background snapshots bound the log; on open, the latest snapshot
// is loaded and the log tail replayed, reproducing the pre-crash
// clusters, matching tables and relations exactly. A torn or corrupt
// log tail (a crash mid-write) is detected and dropped: recovery stops
// at the last fully committed mutation. The hub must be Closed.
func OpenHub(dir string, opts ...HubOption) (*Hub, error) {
	o := hubOptions{snapshotEvery: 1024}
	for _, opt := range opts {
		opt(&o)
	}
	inner, info, err := hub.Open(dir, hub.Options{
		SnapshotEvery:     o.snapshotEvery,
		SyncEvery:         o.syncEvery,
		Store:             o.store,
		HotClusterEntries: o.hotClusters,
	})
	if err != nil {
		return nil, err
	}
	return &Hub{inner: inner, recovery: info}, nil
}

// Recovery returns what OpenHub reconstructed (nil for a memory-only
// hub created with NewHub).
func (h *Hub) Recovery() *HubRecovery {
	return h.recovery
}

// AddSource registers an autonomous source under a unique name; the
// relation seeds the hub's canonical copy (cloned — later hub inserts
// do not touch the original, nor later changes to it the hub).
func (h *Hub) AddSource(name string, rel *Relation) error {
	if rel != nil {
		rel = rel.Clone() // the inner hub takes ownership of what it is given
	}
	return h.inner.AddSource(name, rel)
}

// Link registers the identification link between two sources. Already
// present tuples are identified immediately (batch, then verified and
// folded into the clusters); the hub is unchanged on any failure.
func (h *Hub) Link(p *PairSpec) error {
	if p.ilfdErr != nil {
		return p.ilfdErr
	}
	return h.inner.Link(p.inner)
}

// Insert streams one tuple into a source, identifying it against every
// linked source. The insert is committed everywhere or rejected
// everywhere (§3.2 uniqueness — pairwise and transitive — and
// consistency are insertion guards).
func (h *Hub) Insert(source string, t Tuple) (*HubReceipt, error) {
	return h.inner.Insert(source, t)
}

// FlushEpoch closes a flush epoch — the step an ingest stream takes
// when its input runs empty and before its results end: under
// WithSyncEvery, every append since the last fsync is forced to stable
// storage now. Insert alone syncs only every n-th append; a caller that
// acknowledges its own Insert to someone else calls FlushEpoch between
// the successful Insert and the acknowledgement. No-op on a memory-only
// hub.
func (h *Hub) FlushEpoch() {
	h.inner.FlushEpoch()
}

// IngestBatch is IngestStream for a batch already in hand: it reports
// per-item results in input order, and commits happen strictly in input
// order. For unbounded or incremental input, prefer IngestStream.
func (h *Hub) IngestBatch(items []HubInsert) []HubInsertResult {
	return h.inner.IngestBatch(items)
}

// IngestStream commits an insert stream on goroutines of its own: items
// are read from in until it closes or ctx is canceled, committed
// strictly in input order with write-ahead durability per item, and
// each outcome is delivered on the returned channel (closed after the
// last). At most 2×HubStreamOptions.Window commits (Window defaults to
// 64) run ahead of the consumer, so a slow result consumer backpressures
// its stream — and no other — at bounded memory.
// Cancellation leaves an acked-prefix-committed hub: every delivered
// result is committed, and the committed set is always a prefix of the
// submitted order.
func (h *Hub) IngestStream(ctx context.Context, in <-chan HubInsert, opts HubStreamOptions) <-chan HubStreamResult {
	return h.inner.IngestStream(ctx, in, opts)
}

// Lookup finds a source tuple by its primary-key values and returns
// its global cluster.
func (h *Hub) Lookup(source string, key ...Value) (EntityCluster, error) {
	return h.inner.Lookup(source, key...)
}

// Clusters enumerates every global entity cluster, deterministically.
// It materialises the whole enumeration; prefer ClustersWalk on large
// hubs.
func (h *Hub) Clusters() []EntityCluster {
	return h.inner.Clusters()
}

// ClustersWalk visits the clusters after the cursor, skipping the
// first skip of them without materialisation, handing each one to fn
// with the cursor that resumes the walk immediately after it (fn
// returns false to stop) — the pagination primitive: the resume cursor
// tracks the walk position, which stays monotone even when a
// concurrent merge moves a cluster's ID past the walk's cut. The
// cluster fn receives is borrowed: its Members slice is reused for the
// next cluster and is valid only until fn returns, so a caller that
// keeps a cluster keeps its Clone; the ID, the resume cursor and the
// members themselves are the caller's to keep.
func (h *Hub) ClustersWalk(cursor string, skip int, fn func(c EntityCluster, resume string) bool) error {
	return h.inner.ClustersWalk(cursor, skip, fn)
}

// Merged resolves a cluster into one record per integrated attribute
// under the given strategy (the §2 attribute-value-conflict resolution,
// lifted across N sources).
func (h *Hub) Merged(c EntityCluster, strategy MergeStrategy) (*MergedEntity, error) {
	return h.inner.Merged(c, resolve.Strategy(strategy))
}

// Stats summarises the hub.
func (h *Hub) Stats() HubStats {
	return h.inner.Stats()
}

// HubStoreInfo describes the active storage backend and its hot/cold
// cluster tier occupancy.
type HubStoreInfo = hub.StoreInfo

// StoreInfo reports which storage backend serves the hub and how its
// cluster tier stands: resident vs spilled cluster records, hit/miss and
// page-in counts. Lock-free.
func (h *Hub) StoreInfo() HubStoreInfo {
	return h.inner.StoreInfo()
}

// Health reports the hub's current health state: ready, degraded
// (read-only, recovery probes running) or poisoned (fail-closed until
// restart). A memory-only hub is always ready.
func (h *Hub) Health() HubHealth {
	return h.inner.Health()
}

// SourceNames lists the registered sources in registration order.
func (h *Hub) SourceNames() []string {
	return h.inner.SourceNames()
}

// SourceSchema returns a registered source's schema.
func (h *Hub) SourceSchema(source string) (*Schema, error) {
	return h.inner.SourceSchema(source)
}

// Checkpoint forces a synchronous snapshot — capture, atomic write,
// log truncation — so the next OpenHub replays nothing. It fails on a
// memory-only hub.
func (h *Hub) Checkpoint() error {
	return h.inner.SnapshotNow()
}

// HubSnapshotStats reports what the most recent snapshot wrote and
// when it committed.
type HubSnapshotStats = hub.SnapshotStats

// LastSnapshot reports the most recent completed snapshot: its WAL
// watermark, what it wrote, and when it committed (Taken is seeded
// from the on-disk manifest after OpenHub, so snapshot age survives
// restarts). The zero value means no snapshot exists — always the
// case for a memory-only hub.
func (h *Hub) LastSnapshot() HubSnapshotStats {
	return h.inner.LastSnapshot()
}

// CheckInvariants verifies the served state against the paper's §3.2
// guarantees and the hub's own bookkeeping — pairwise and transitive
// uniqueness, partition = closure of the pairwise matching tables, every
// length the hub keeps twice — and returns the first violation. It is
// O(hub) and stalls commits while it reads the partition: a diagnostic
// (entityidd serves it at /debug/check), not a request-path call.
func (h *Hub) CheckInvariants() error {
	return h.inner.CheckInvariants()
}

// Close quiesces background snapshotting and closes the write-ahead
// log. It is a no-op on a memory-only hub.
func (h *Hub) Close() error {
	return h.inner.Close()
}
