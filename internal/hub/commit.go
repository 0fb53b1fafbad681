// The commit path: the one way a tuple enters the hub. Insert identifies
// the new tuple against every pair of its source (match.Result.Identify,
// §3.2's insertion guard, which changes nothing), checks the transitive
// constraint, and only then commits everywhere, all under the one commit
// lock: whether an insert is accepted depends on clusters every pair
// feeds (§3.2 lifted across sources), so commits are serial and one lock
// says so. There is one ingest path: Insert is the
// commit path, IngestStream (pipeline.go) runs it over a channel — two
// goroutines per stream, one WAL-encoding ahead of the one that commits,
// with backpressure — and IngestBatch is a slice-in/slice-out wrapper
// over IngestStream.
package hub

import (
	"context"
	"errors"
	"fmt"

	"entityid/internal/match"
	"entityid/internal/obs"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/store"
	"entityid/internal/wal"
)

// ErrInvalidUTF8 matches the refusal of a tuple — inserted, streamed or
// seeded — holding a string that is not valid UTF-8: JSON, the tuple
// codec, would log it as U+FFFD and replay a different value. Refused
// on memory-only hubs too: what a hub accepts does not depend on whether
// it is durable.
var ErrInvalidUTF8 = errors.New("string value is not valid UTF-8")

// checkUTF8 refuses a tuple over sch that the codec cannot hold, naming
// the attribute.
func checkUTF8(sch *schema.Schema, t relation.Tuple) error {
	if i := t.InvalidUTF8(); i >= 0 {
		return fmt.Errorf("attribute %q: %w (%q)", sch.Attr(i).Name, ErrInvalidUTF8, t[i].Str())
	}
	return nil
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
// everywhere — canonical relation, every pair's matching result, global
// clusters — or rejected everywhere. Rejections (source key violation,
// pairwise §3.2 uniqueness or consistency violation, transitive
// cluster-uniqueness violation) leave the hub exactly as it was.
func (h *Hub) Insert(source string, t relation.Tuple) (*Receipt, error) {
	return h.insertTraced(source, t, h.walPayload(source, t))
}

// walPayload encodes the write-ahead-log record of an insert on a
// durable hub (nil on a memory-only one) — outside every lock, so the
// append under them is a pure log write.
func (h *Hub) walPayload(source string, t relation.Tuple) []byte {
	if h.per == nil {
		return nil
	}
	return wal.AppendInsert(make([]byte, 0, 64+24*len(t)), source, t)
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
	switch {
	case err == nil:
	case errors.Is(err, ErrDegraded), errors.Is(err, ErrPoisoned):
		// The insert that found the disk sick, or tripped an invariant: the
		// hub could not take it, which is not the tuple's doing.
		ingestUnavailable.Inc()
		return nil, err
	default:
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
	// One commit at a time, from admission to receipt: what was admitted
	// and identified is still true when it is applied.
	h.commitMu.Lock()
	defer h.commitMu.Unlock()
	// The source admits the tuple — shape and candidate keys, the one time
	// either is checked: every pair identifies from the admission, and the
	// canonical insert below files the tuple under the key hashes taken
	// here.
	adm, err := src.rel.Admit(t)
	if err != nil {
		return nil, fmt.Errorf("hub: source %q: %w", source, err)
	}
	if err := checkUTF8(src.rel.Schema(), t); err != nil {
		return nil, fmt.Errorf("hub: source %q: %w", source, err)
	}
	// Phase 1: extend the tuple once per image of its source, then
	// identify it against every pair from its side's extension, mutating
	// nothing, collecting each pair's matches and the partner tuples the
	// insert would match.
	for k, im := range src.images {
		if _, err := im.Extend(adm, &src.ext[k]); err != nil {
			return nil, fmt.Errorf("hub: source %q: %w", source, err)
		}
	}
	matched := make([][]match.Pair, len(src.pairs))
	var partners []node
	for i, p := range src.pairs {
		left := p.left == si
		pairs, err := p.res.Identify(left, src.extOf(p, left), &p.sc)
		if err != nil {
			if errors.Is(err, match.ErrUniqueness) {
				mUniqueness.Inc()
			}
			return nil, fmt.Errorf("hub: source %q vs %q: %w", source, h.sources[p.other(si)].name, err)
		}
		for _, pr := range pairs {
			if left {
				partners = append(partners, node{Src: p.right, Idx: pr.SIndex})
			} else {
				partners = append(partners, node{Src: p.left, Idx: pr.RIndex})
			}
		}
		matched[i] = pairs
	}
	n := node{Src: si, Idx: src.rel.Len()}
	// Phase 2: transitive uniqueness, then commit everywhere. The check
	// precedes every mutation, so rejection needs no undo; appends
	// cannot fail under the commit lock.
	merged, err := store.CheckMerge(h.clusters, n, partners, h.sourceName)
	if err != nil {
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
	insErr := src.rel.InsertAdmitted(adm)
	if insErr == nil {
		src.publishView()
	}
	src.keyMu.Unlock()
	if insErr != nil {
		// Unreachable under the commit lock: the canonical
		// relation changed between admitting the tuple and taking it. The
		// WAL already holds the record, so poison the hub instead of
		// panicking — fail-closed ingest, reads keep serving the published
		// views, restart replays the log into a consistent state.
		return nil, fmt.Errorf("hub: source %q: %w", source,
			h.poison(fmt.Errorf("canonical insert after its admission: %v", insErr)))
	}
	// Every pair appends beside it — the first over each image has the
	// image keep what the extension adds to the tuple just inserted, the
	// relation it borrows checked to be exactly one tuple ahead of it —
	// and grows its matching table.
	for i, p := range src.pairs {
		left := p.left == si
		if err := p.res.Append(left, src.extOf(p, left), matched[i]); err != nil {
			// Same invariant class as above, with in-memory pairwise
			// state torn mid-commit: poison.
			return nil, fmt.Errorf("hub: source %q: %w", source,
				h.poison(fmt.Errorf("pair %d append after its identification: %v", p.id, err)))
		}
	}
	stageApply.Observe(op.Stage("apply"))
	// The fold was done by the check (everything a merge reads,
	// CheckMerge has read); what is left cannot fail.
	if merged != nil {
		h.clusters.Publish(merged)
	}
	if len(partners) > 0 {
		mClusterMerges.Inc()
	}
	stageClusterFold.Observe(op.Stage("cluster_fold"))
	if h.snap != nil {
		h.snap.noteCommit()
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
	if merged == nil {
		merged = []node{n}
	}
	rec.Cluster = h.materialize(topo, merged)
	return rec, nil
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
