// The commit path: the one way a tuple enters the hub. A commit run
// identifies each new tuple against every pair of its source
// (match.Result.Identify, §3.2's insertion guard, which changes
// nothing), checks the transitive constraint, and only then commits
// everywhere, all under the one commit lock: whether an insert is
// accepted depends on clusters every pair feeds (§3.2 lifted across
// sources), so commits are serial and one lock says so. There is one
// ingest path: Insert is a run of one, IngestStream (pipeline.go) runs
// it over a channel — two goroutines per stream, one WAL-encoding ahead
// of the one that commits what is queued as runs, with backpressure —
// and IngestBatch is a slice-in/slice-out wrapper over IngestStream.
package hub

import (
	"context"
	"errors"
	"fmt"
	"slices"

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
// insert. The members' tuples are the receipt's own, read out of the
// sources' cells, but for a tuple that joined no cluster: its member's
// tuple is the one the caller inserted.
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
// cluster-uniqueness violation) leave the hub exactly as it was. It is a
// commit run of one.
func (h *Hub) Insert(source string, t relation.Tuple) (*Receipt, error) {
	jobs := [1]streamJob{{Insert: Insert{Source: source, Tuple: t}, payload: h.walPayload(source, t)}}
	var out [1]InsertResult
	h.commitTraced(jobs[:], out[:])
	return out[0].Receipt, out[0].Err
}

// walPayload encodes the write-ahead-log record of an insert on a
// durable hub (nil on a memory-only one), a run of one — outside every
// lock, so the append under them is a pure log write.
func (h *Hub) walPayload(source string, t relation.Tuple) []byte {
	if h.per == nil {
		return nil
	}
	return wal.AppendRun(make([]byte, 0, 32+24*len(t)), source, false, relation.RowsOf(t))
}

// commitTraced commits a prefix of jobs as one run (commitRun) and
// reports each committed or refused job's outcome in out, in order; it
// returns the prefix's length, at least 1. It is the traced commit path
// shared by Insert and a stream's commit goroutine: health fast path,
// slow-op tracing, outcome counters. Each job's payload is walPayload's
// record for its exact (source, tuple).
func (h *Hub) commitTraced(jobs []streamJob, out []InsertResult) int {
	// Degraded/poisoned fast path: fail before taking any lock, so a
	// sick disk turns ingest into an immediate typed rejection instead
	// of a queue behind the failure.
	if err := h.healthErr(); err != nil {
		for i := range jobs {
			ingestUnavailable.Inc()
			out[i] = InsertResult{Err: fmt.Errorf("hub: source %q: %w", jobs[i].Source, err)}
		}
		return len(jobs)
	}
	op := obs.StartOp("insert", jobs[0].Source)
	n, ok := h.commitRun(jobs, out, &op)
	total := op.Finish(SlowOps)
	for i := range n {
		switch err := out[i].Err; {
		case err == nil:
			ingestOK.Inc()
		case errors.Is(err, ErrDegraded), errors.Is(err, ErrPoisoned):
			// The insert that found the disk sick, or tripped an invariant: the
			// hub could not take it, which is not the tuple's doing.
			ingestUnavailable.Inc()
		default:
			ingestRejected.Inc()
		}
	}
	mIngestSeconds.ObserveShares(total, ok)
	return n
}

// runState is the working memory of one commit run: a slot per tuple
// and the run's pending state that is not a source's or a pair's. The
// hub keeps one, under the commit lock.
type runState struct {
	tuples   []runTuple
	payloads [][]byte
	// merged holds every member of the clusters the run's accepted tuples
	// merge into; touched the sources of those tuples, in order of first
	// acceptance.
	merged  []node
	touched []*sourceState
}

// runTuple is one tuple of a commit run, from admission to receipt.
type runTuple struct {
	src *sourceState
	// ahead is how many accepted tuples of its source the run holds
	// before it: it takes row src.rel.Len()+ahead.
	ahead int
	adm   relation.Admission
	// ext[k] is the tuple as its source's images[k] extends it.
	ext []match.Extended
	// matched[i] is the pair Identify found on its source's pairs[i], if
	// has[i].
	matched  []match.Pair
	has      []bool
	partners []node
	merged   []node
	// prints is its footprint on each of its source's pairs, pair k's at
	// prints[printAt[k]:printAt[k+1]].
	prints  []uint64
	printAt []int
	ok      bool
}

// slot returns run slot i, emptied for a new tuple.
func (r *runState) slot(i int) *runTuple {
	if i == len(r.tuples) {
		r.tuples = append(r.tuples, runTuple{})
	}
	t := &r.tuples[i]
	t.src, t.ok = nil, false
	return t
}

// extOf returns the tuple as extended by the image pair p reads of its
// source, its left side or its right.
func (t *runTuple) extOf(p *pairState, left bool) *match.Extended {
	if left {
		return &t.ext[p.img[0]]
	}
	return &t.ext[p.img[1]]
}

// commitRun commits a prefix of jobs, in order, as one run: one hold of
// the commit lock, one log write, one view publication per source. Each
// tuple is admitted and identified against the committed state alone —
// §3.2's guard reads a tuple's key, its partners and their clusters, so
// a tuple that shares none of these with an earlier tuple of the run
// gets the answer it would get behind it — and the run ends just before
// the first tuple that shares one (prepare). So a run commits exactly
// what its tuples committed one at a time would. out[i] gets job i's
// outcome; it returns the prefix's length, at least 1, and how many of
// it were accepted. op marks the run's stages, each observed once per
// accepted tuple at its share.
//
//entitylint:commitpath
func (h *Hub) commitRun(jobs []streamJob, out []InsertResult, op *obs.Op) (n, accepted int) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	// One commit at a time, from admission to receipt: what was admitted
	// and identified is still true when it is applied.
	h.commitMu.Lock()
	defer h.commitMu.Unlock()
	r := &h.run
	defer r.reset()
	payloads := r.payloads[:0]
	for n < len(jobs) {
		t := r.slot(n)
		err, cut := h.prepare(&jobs[n], t)
		if cut {
			break
		}
		if out[n] = (InsertResult{Err: err}); err == nil {
			payloads = append(payloads, jobs[n].payload)
		}
		n++
	}
	r.payloads = payloads
	accepted = len(payloads)
	stagePrepare.ObserveShares(op.Stage("prepare"), accepted)
	if accepted == 0 {
		return n, 0
	}
	// Write-ahead: the run's records — each tuple's own run-of-one record,
	// the bytes it would log alone — reach the log, in one write, before
	// any in-memory commit. A failed append rejects every tuple of the run
	// with the hub unchanged: the log rolls a torn write back whole, and
	// should that fail too it refuses every later append, so at worst the
	// whole frames ahead of the tear reach disk unacknowledged — a prefix
	// of the run, which a restart may commit — and the torn one is dropped
	// by recovery's CRC check. Replaying the log never observes a torn
	// commit. A persistent failure (ENOSPC, EIO, unusable log)
	// additionally degrades the hub to read-only; the rejection is typed
	// either way.
	if h.per != nil {
		if err := h.per.appendPayloads(payloads); err != nil {
			h.refuseRun(jobs[:n], out, h.ingestFailed(err))
			return n, 0
		}
	}
	stageWalAppend.ObserveShares(op.Stage("wal_append"), accepted)
	// The one copy of each tuple: a source's canonical inserts and its
	// view republication share the key lock, so a reader whose key lookup
	// finds a new tuple always loads a view that covers it.
	for _, src := range r.touched {
		src.keyMu.Lock()
		var insErr error
		for i := range n {
			if t := &r.tuples[i]; t.ok && t.src == src && insErr == nil {
				insErr = src.rel.InsertAdmitted(t.adm)
			}
		}
		src.publishView()
		src.keyMu.Unlock()
		if insErr != nil {
			// Unreachable under the commit lock: the canonical relation
			// changed between admitting a tuple and taking it. The WAL
			// already holds the records, so poison the hub instead of
			// panicking — fail-closed ingest, reads keep serving the
			// published views, restart replays the log into a consistent
			// state.
			h.refuseRun(jobs[:n], out, h.poison(fmt.Errorf("canonical insert after its admission: %v", insErr)))
			return n, 0
		}
	}
	// Every pair appends beside it, in run order — the first over each
	// image has the image keep what the extension adds to the tuple, the
	// relation it borrows checked to hold exactly the tuple and those of
	// the run behind it — and grows its matching table.
	for i := range n {
		t := &r.tuples[i]
		if !t.ok {
			continue
		}
		behind := t.src.runN - 1 - t.ahead
		for k, p := range t.src.pairs {
			left := p.left == t.src.id
			var pairs []match.Pair
			if t.has[k] {
				pairs = t.matched[k : k+1]
			}
			if err := p.res.Append(left, t.extOf(p, left), pairs, behind); err != nil {
				// Same invariant class as above, with in-memory pairwise
				// state torn mid-commit: poison.
				h.refuseRun(jobs[:n], out, h.poison(fmt.Errorf("pair %d append after its identification: %v", p.id, err)))
				return n, 0
			}
		}
	}
	stageApply.ObserveShares(op.Stage("apply"), accepted)
	// The folds were done by the checks (everything a merge reads,
	// CheckMerge has read, and no two tuples of the run merge into one
	// cluster); what is left cannot fail. Every member's view was
	// published before the cluster record that names it, so the read
	// side's materialiser serves the receipts too.
	for i := range n {
		if t := &r.tuples[i]; t.ok && t.merged != nil {
			h.clusters.Publish(t.merged)
			mClusterMerges.Inc()
		}
	}
	stageClusterFold.ObserveShares(op.Stage("cluster_fold"), accepted)
	if h.snap != nil {
		h.snap.noteCommits(accepted)
	}
	mCommitRun.ObserveVal(int64(accepted))
	topo := h.topo.Load()
	for i := range n {
		t := &r.tuples[i]
		if !t.ok {
			continue
		}
		nd := node{Src: t.src.id, Idx: t.adm.At()}
		rec := &Receipt{Source: jobs[i].Source, Index: nd.Idx}
		merged := t.merged
		if merged == nil {
			merged = []node{nd}
		}
		// The cluster's members and the matched ones share one slice:
		// every partner is a member of the cluster the tuple joined, and
		// its member is the cluster's.
		ms, n := make([]Member, 0, len(merged)+len(t.partners)), len(merged)
		rec.Cluster = h.cluster(ms, topo, merged)
		rec.Cluster.Members = rec.Cluster.Members[:n:n]
		if len(t.partners) > 0 {
			rec.Matched = ms[n : n+len(t.partners)]
			for k, p := range t.partners {
				rec.Matched[k] = rec.Cluster.Members[slices.Index(merged, p)]
			}
		}
		out[i].Receipt = rec
	}
	return n, accepted
}

// prepare admits, extends and identifies one job of the open run against
// the committed state, mutating nothing but the run's pending state. It
// reports cut when the job depends on an accepted tuple of the run — it
// shares with one a candidate-key hash (same source), a probe footprint
// on a pair, or any tuple at all on a pair whose identity rule scans
// (other side), or a partner's cluster — so that the state it would be
// judged against is not the committed one; the job is then left for the
// next run. Otherwise err is its refusal, or nil when the run accepts
// it.
func (h *Hub) prepare(j *streamJob, t *runTuple) (err error, cut bool) {
	r := &h.run
	si, ok := h.byName[j.Source]
	if !ok {
		return fmt.Errorf("hub: unknown source %q", j.Source), false
	}
	src := h.sources[si]
	// The source admits the tuple — shape and candidate keys, the one time
	// either is checked: every pair identifies from the admission, and the
	// canonical insert files the tuple under the key hashes taken here. A
	// key hash an accepted tuple of the run holds cuts the run.
	t.adm, err = src.rel.AdmitBehind(j.Tuple, src.runN, src.runKeys)
	if errors.Is(err, relation.ErrHeld) {
		return nil, true
	}
	if err != nil {
		return fmt.Errorf("hub: source %q: %w", j.Source, err), false
	}
	if err := checkUTF8(src.rel.Schema(), j.Tuple); err != nil {
		return fmt.Errorf("hub: source %q: %w", j.Source, err), false
	}
	// Extend the tuple once per image of its source, then identify it
	// against every pair from its side's extension, mutating nothing,
	// collecting each pair's match and the partner tuples the insert
	// would match.
	t.ext = slices.Grow(t.ext[:0], len(src.images))[:len(src.images)]
	for k, im := range src.images {
		if _, err := im.Extend(t.adm, &t.ext[k]); err != nil {
			return fmt.Errorf("hub: source %q: %w", j.Source, err), false
		}
	}
	t.prints, t.printAt = t.prints[:0], append(t.printAt[:0], 0)
	for _, p := range src.pairs {
		left := p.left == si
		other := 0
		if left {
			other = 1
		}
		at := len(t.prints)
		var scans bool
		t.prints, scans = p.res.Footprint(t.prints, left, t.extOf(p, left))
		t.printAt = append(t.printAt, len(t.prints))
		if p.runN[other] > 0 && (scans || sharesAny(p.runPrints[other], t.prints[at:])) {
			return nil, true
		}
	}
	t.matched = slices.Grow(t.matched[:0], len(src.pairs))[:len(src.pairs)]
	t.has = slices.Grow(t.has[:0], len(src.pairs))[:len(src.pairs)]
	t.partners = t.partners[:0]
	for k, p := range src.pairs {
		left := p.left == si
		pairs, err := p.res.Identify(left, t.extOf(p, left), &p.sc)
		if err != nil {
			if errors.Is(err, match.ErrUniqueness) {
				mUniqueness.Inc()
			}
			return fmt.Errorf("hub: source %q vs %q: %w", j.Source, h.sources[p.other(si)].name, err), false
		}
		t.has[k] = len(pairs) > 0
		for _, pr := range pairs {
			t.matched[k] = pr
			partner := node{Src: p.left, Idx: pr.RIndex}
			if left {
				partner = node{Src: p.right, Idx: pr.SIndex}
			}
			// A partner an accepted tuple of the run merges with — matched,
			// or in a cluster it joins — is judged by that tuple's commit.
			if slices.Contains(r.merged, partner) {
				return nil, true
			}
			t.partners = append(t.partners, partner)
		}
	}
	// Transitive uniqueness: the check precedes every mutation, so
	// rejection needs no undo.
	t.merged, err = store.CheckMerge(h.clusters, node{Src: si, Idx: t.adm.At()}, t.partners, h.sourceName)
	if err != nil {
		if errors.Is(err, store.ErrUniqueness) {
			mUniqueness.Inc()
		}
		return fmt.Errorf("hub: source %q: %w", j.Source, err), false
	}
	// Accepted: later tuples of the run are held apart from this one.
	t.src, t.ahead, t.ok = src, src.runN, true
	if src.runN == 0 {
		r.touched = append(r.touched, src)
	}
	src.runKeys, src.runN = t.adm.KeyHashes(src.runKeys), src.runN+1
	for k, p := range src.pairs {
		own := 1
		if p.left == si {
			own = 0
		}
		p.runPrints[own] = append(p.runPrints[own], t.prints[t.printAt[k]:t.printAt[k+1]]...)
		p.runN[own]++
	}
	if len(t.merged) > 0 {
		r.merged = append(r.merged, t.merged...)
	}
	return nil, false
}

// refuseRun turns every accepted tuple of the run's jobs into a refusal
// with err: the run's log write failed, or its apply tripped an
// invariant.
func (h *Hub) refuseRun(jobs []streamJob, out []InsertResult, err error) {
	for i := range jobs {
		if t := &h.run.tuples[i]; t.ok {
			t.ok = false
			out[i] = InsertResult{Err: fmt.Errorf("hub: source %q: %w", jobs[i].Source, err)}
		}
	}
}

// reset empties the run's pending state for the next run.
func (r *runState) reset() {
	for _, src := range r.touched {
		src.runKeys, src.runN = src.runKeys[:0], 0
		for _, p := range src.pairs {
			p.runPrints = [2][]uint64{p.runPrints[0][:0], p.runPrints[1][:0]}
			p.runN = [2]int{}
		}
	}
	r.touched, r.merged = r.touched[:0], r.merged[:0]
	clear(r.payloads)
	r.payloads = r.payloads[:0]
}

// sharesAny reports whether the hash lists a and b hold a hash in common.
func sharesAny(a, b []uint64) bool {
	for _, x := range b {
		if slices.Contains(a, x) {
			return true
		}
	}
	return false
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
