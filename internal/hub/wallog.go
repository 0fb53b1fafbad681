// The log writer: every committed mutation — AddSource, Link, Insert —
// is appended to a wal.Log before it is applied (the topology and the
// commit path call the append* helpers at their commit points), so the
// on-disk log is always a prefix-exact account of the in-memory state.
// It also owns the opt-in group-commit sync policy and the one record
// codec that is the hub's rather than the wal package's (a link's spec).
// What each record holds: source_begin a source's schema; a run record
// one source's tuples (wal.AppendRun) — an insert's one, or a
// registration's seeds after its source_begin; and link a pair's whole
// spec.
package hub

import (
	"sync"
	"sync/atomic"

	"entityid/internal/relation"
	"entityid/internal/wal"
)

// walLogger couples a hub to its write-ahead log.
type walLogger struct {
	log        *wal.Log
	syncEvery  int
	chunkBytes int
	// hub is the owner, so a group-commit fsync failure — discovered off
	// the ingest path — can be recorded and degrade it.
	hub *Hub
	// unsynced counts appends since the last fsync under the opt-in
	// group-commit policy; a failed fsync leaves the count pending so
	// the next append retries. syncMu serialises the flushes.
	unsynced atomic.Int64
	//entitylint:lock rank=70
	syncMu sync.Mutex
}

//entitylint:walappend
func (p *walLogger) append(env wal.Envelope) error {
	payload, err := env.Encode()
	if err != nil {
		return err
	}
	return p.appendPayload(payload)
}

// appendPayload appends an already-encoded record — inserts arrive
// encoded (Hub.walPayload), off the commit path.
//
//entitylint:walappend
func (p *walLogger) appendPayload(payload []byte) error {
	if _, err := p.log.Append(payload); err != nil {
		return err
	}
	p.maybeSync()
	return nil
}

// maybeSync applies the opt-in group-commit policy: after every
// SyncEvery appends, force the log to stable storage. The record is
// already committed when the sync runs, so a sync failure is surfaced
// as a background error (like a failed snapshot) rather than un-doing
// an acknowledged commit — but the pending count is only consumed on
// success, so the very next append retries the fsync and the
// power-loss exposure stays bounded at N instead of silently widening.
func (p *walLogger) maybeSync() {
	if p.syncEvery <= 0 {
		return
	}
	if p.unsynced.Add(1) < int64(p.syncEvery) {
		return
	}
	p.syncPending()
}

// syncPending fsyncs and consumes exactly the counted appends the sync
// covered (an append racing in after the Sync keeps its count, so it is
// flushed by a later sync); with nothing counted — always the case
// without the group-commit policy — it is a no-op. syncMu makes the
// load-sync-subtract triple atomic against concurrent flushes.
func (p *walLogger) syncPending() {
	if p.unsynced.Load() == 0 {
		return // nothing counted: skip the lock too (flush epochs land here per stream)
	}
	p.syncMu.Lock()
	defer p.syncMu.Unlock()
	n := p.unsynced.Load()
	if n <= 0 {
		return
	}
	if err := p.log.Sync(); err != nil {
		p.hub.backgroundFailed(err)
		return
	}
	p.unsynced.Add(-n)
}

// appendAddSource logs a source registration: a source_begin record,
// then the run of its seed tuples, split into budget-sized records by the
// snapshot runs' splitter (writeChunked), that commits atomically at its
// last record.
//
//entitylint:walappend
func (p *walLogger) appendAddSource(name string, rel *relation.Relation) error {
	if err := p.append(wal.Envelope{Type: wal.TypeSourceBegin, SourceBegin: &wal.SourceBeginRec{
		Name:   name,
		Schema: wal.EncodeSchema(rel.Schema()),
	}}); err != nil {
		return err
	}
	return writeChunked(name, rel.Tuples(), p.chunkBytes, p.appendPayload)
}

//entitylint:walappend
func (p *walLogger) appendLink(spec PairSpec) error {
	rec := linkRecFromSpec(spec)
	return p.append(wal.Envelope{Type: wal.TypeLink, Link: &rec})
}

// linkRecFromSpec converts a pair spec into its WAL/snapshot record.
func linkRecFromSpec(spec PairSpec) wal.LinkRec {
	return wal.LinkRec{
		Left:     spec.Left,
		Right:    spec.Right,
		Attrs:    wal.EncodeAttrMaps(spec.Attrs),
		ExtKey:   spec.ExtKey,
		ILFDs:    wal.EncodeILFDs(spec.ILFDs),
		Identity: wal.EncodeIdentityRules(spec.Identity),
		Distinct: wal.EncodeDistinctnessRules(spec.Distinct),
	}
}

// specFromLinkRec restores a pair spec, re-validating ILFDs and rules.
func specFromLinkRec(r wal.LinkRec) (PairSpec, error) {
	ilfds, err := wal.DecodeILFDs(r.ILFDs)
	if err != nil {
		return PairSpec{}, err
	}
	identity, err := wal.DecodeIdentityRules(r.Identity)
	if err != nil {
		return PairSpec{}, err
	}
	distinct, err := wal.DecodeDistinctnessRules(r.Distinct)
	if err != nil {
		return PairSpec{}, err
	}
	return PairSpec{
		Left:     r.Left,
		Right:    r.Right,
		Attrs:    wal.DecodeAttrMaps(r.Attrs),
		ExtKey:   r.ExtKey,
		ILFDs:    ilfds,
		Identity: identity,
		Distinct: distinct,
	}, nil
}
