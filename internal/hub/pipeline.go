// Streaming ingest: IngestStream runs each stream on its own pair of
// goroutines,
//
//	in → [encode-ahead] → jobs (Window deep) → [commit] → out (Window deep)
//
// and streams share nothing but the commit lock. Encode-ahead reads the
// caller's channel, honours the stream context and — on durable hubs —
// encodes the tuple's write-ahead-log payload, so the encoding of tuple
// N+1 overlaps the commit of tuple N. Commit takes every job queued
// behind it, up to Window, and runs the Insert commit path over them as
// one run (commit.go: health, source lookup, blocking, per-pair
// matching, one WAL write, apply and cluster fold, under the same commit
// lock as a direct Insert, which is a run of one); a run ends before the
// first job an earlier one of it could change the answer for, and that
// job opens the next. So per-item semantics — WAL write-ahead, §3.2
// uniqueness, all-or-nothing per insert — are Insert's, decided in one
// place. It is one goroutine because a pair's identification is only
// valid while the commit lock is held: what identified a match must
// append it.
//
// Backpressure: both channels are bounded, so a consumer that stops
// reading stalls its own stream — commit blocks on out, encode-ahead on
// jobs, then the caller's producer (the HTTP decoder, then the client's
// TCP window) — with at most Window results buffered, at most a run's
// Window held by the commit goroutine and Window+1 encoded items behind
// it. No other stream notices: there is no shared queue to fill.
//
// Ordering and durability: one commit goroutine over a FIFO channel
// commits in submission order, so the committed set after a crash or a
// cancellation is a prefix of the stream, and every delivered result is
// committed (acked ⊆ committed). There is one sync policy, opt-in
// (SyncEvery): an fsync every N appends, plus the commit goroutine's
// *flush epochs* — whenever its input is momentarily empty (the batch
// boundary of a bursty stream) and once more before it closes the result
// channel, pending appends are fsynced, unless none of the stream's own
// inserts reached the log since its last epoch. So a closed result
// channel means every acknowledged append of that stream is synced per
// policy — for IngestStream callers and for IngestBatch, which is one.
// An epoch is the FlushEpoch method, which a caller acknowledging a
// direct Insert calls too; Insert alone keeps only the every-N sync.
//
// Lifecycle: encode-ahead exits before the result channel closes and
// commit exits by closing it; an idle hub owns no ingest goroutines.
package hub

import "context"

// defaultStreamWindow is the depth of a stream's two channels when
// StreamOptions.Window is 0, and of replay's one (persist.go).
const defaultStreamWindow = 64

// StreamOptions configures IngestStream.
type StreamOptions struct {
	// Window bounds the stream's in-flight items: up to Window encoded
	// items wait for the commit goroutine and up to Window results wait
	// for the consumer; past that the stream stalls (and backpressure
	// propagates to the input channel). 0 means the default (64).
	Window int
}

// StreamResult is one IngestStream outcome. Seq is the item's 0-based
// position in the input stream; results are delivered in Seq order.
type StreamResult struct {
	Seq     int
	Receipt *Receipt
	Err     error
}

// streamJob is one item between a stream's two goroutines: the insert
// and its pre-encoded WAL record (durable hubs).
type streamJob struct {
	Insert
	payload []byte
}

// IngestStream commits an insert stream: items are read from in until
// it closes or ctx fires, committed strictly in order, and each outcome
// is delivered on the returned channel (closed after the last result).
// At most 2×StreamOptions.Window commits run ahead of a consumer that
// reads nothing, so a slow consumer stalls the stream at bounded memory
// instead of buffering it.
//
// Cancellation leaves an acked-prefix-committed hub: commits happen in
// submission order, every result delivered before ctx fired is
// committed (and WAL-logged ahead), and items past the cancellation
// point are neither committed nor reported.
func (h *Hub) IngestStream(ctx context.Context, in <-chan Insert, opts StreamOptions) <-chan StreamResult {
	if ctx == nil {
		ctx = context.Background()
	}
	window := opts.Window
	if window <= 0 {
		window = defaultStreamWindow
	}
	// Both channels are Window deep: that is the stream's whole in-flight
	// bound (see StreamOptions.Window).
	jobs := make(chan streamJob, window)
	out := make(chan StreamResult, window)
	mPipeStreams.Inc()
	go h.encodeAhead(ctx, in, jobs)
	go h.commitStream(ctx, jobs, out, window)
	return out
}

// encodeAhead feeds a stream's commit goroutine: it ends (closing jobs)
// when in closes or ctx fires, whichever comes first.
func (h *Hub) encodeAhead(ctx context.Context, in <-chan Insert, jobs chan<- streamJob) {
	defer close(jobs)
	for {
		var item Insert
		var ok bool
		select {
		case item, ok = <-in:
			if !ok {
				return
			}
		case <-ctx.Done():
			return
		}
		j := streamJob{Insert: item, payload: h.walPayload(item.Source, item.Tuple)}
		depthCommit.Add(1)
		select {
		case jobs <- j:
			continue
		default:
		}
		stallCommit.Inc()
		select {
		case jobs <- j:
		case <-ctx.Done():
			depthCommit.Add(-1) // the job never entered the queue
			return
		}
	}
}

// FlushEpoch closes a flush epoch: under the SyncEvery policy every
// append counted since the last fsync is forced to stable storage now.
// It is what turns "committed" into "acknowledgeable": a stream's commit
// goroutine calls it when its input runs empty and before it closes its
// result channel, and a caller that acknowledges an Insert of its own
// (entityidd's one-line POST) calls it between the commit and the ack —
// so "acked ⇒ synced per SyncEvery" is decided here and nowhere else.
// Call it only after an append of your own reached the log: an epoch
// with nothing to force is not an epoch. No-op on a memory-only hub.
func (h *Hub) FlushEpoch() {
	if h.per == nil {
		return
	}
	mPipeFlushEpochs.Inc()
	h.per.syncPending()
}

// commitStream is a stream's serialized tail: it commits what is queued
// behind it, up to window jobs, as one run (commitTraced), carries
// the jobs the run left over into the next, and sends each result to
// out in order. Once ctx has fired the remaining jobs are drained
// uncommitted and nothing more is delivered (the commits behind
// already-delivered results stand). Flush epochs close whenever nothing
// is queued and before out closes — closing the last one *before*
// close(out) is what lets the consumer read "result channel closed" as
// "my acknowledged appends are synced".
func (h *Hub) commitStream(ctx context.Context, jobs <-chan streamJob, out chan<- StreamResult, window int) {
	// appended: an insert of this stream reached the log since the last
	// flush epoch, so the epoch has something to force to stable storage.
	appended := false
	// A run is at most a window: its results wait to be sent with the
	// window's, so a consumer that reads nothing still stalls the stream
	// at 2×window commits.
	run := make([]streamJob, 0, window)
	results := make([]InsertResult, window)
	for seq, open := 0, true; ; {
		// Take what is queued, up to a run's worth, without waiting.
	take:
		for open && len(run) < cap(run) {
			select {
			case j, ok := <-jobs:
				if open = ok; ok {
					depthCommit.Add(-1)
					run = append(run, j)
				}
			default:
				break take
			}
		}
		if len(run) == 0 {
			// The burst is over (nothing queued) or the stream is (jobs
			// closed): close the flush epoch before blocking or ending.
			if appended {
				appended = false
				h.FlushEpoch()
			}
			if !open {
				close(out)
				return
			}
			if j, ok := <-jobs; ok {
				depthCommit.Add(-1)
				run = append(run, j)
			} else {
				open = false
			}
			continue
		}
		if ctx.Err() != nil {
			seq += len(run)
			run = run[:0]
			continue
		}
		n := h.commitTraced(run, results)
	deliver:
		for i, res := range results[:n] {
			if res.Err == nil && h.per != nil {
				appended = true
			}
			select {
			case out <- StreamResult{Seq: seq + i, Receipt: res.Receipt, Err: res.Err}:
			case <-ctx.Done():
				break deliver // nothing past the cancellation is delivered
			}
		}
		seq += n
		clear(results[:n])
		run = append(run[:0], run[n:]...)
	}
}
