// Streaming dataflow ingest: the hub's write path as a pipeline of
// bounded-channel stages instead of a batch barrier.
//
// Ingest work flows through three resident single-goroutine stages,
//
//	feeder → [admit] → [encode] → [commit] → results
//
// connected by bounded channels: admit validates the stream context,
// hub health and the target source against the lock-free topology
// snapshot; encode pre-marshals the tuple's write-ahead-log payload off
// the commit path; commit runs the existing Insert commit path —
// blocking (hash-join candidate generation), per-pair matching and the
// cluster fold all happen inside it, under the same per-source,
// per-pair and commit locks as a direct Insert, so per-item semantics
// (WAL write-ahead, §3.2 uniqueness, all-or-nothing per insert) are
// preserved bit-for-bit. The commit stage is deliberately not split
// further: a federate Pending is only valid while the pair locks are
// held, so blocking/matching cannot be committed by a different
// goroutine than the one that prepared them. What the pipeline overlaps
// is everything around the locked region — decoding, validation and WAL
// encoding of the next tuples proceed while the current one commits.
//
// Every channel is bounded, so a slow consumer backpressures the whole
// chain — feeder stalls, then the HTTP decoder, then the client's TCP
// window — and pipeline memory stays O(stage buffers), never O(stream).
// Each stream additionally carries a credit window bounding its own
// in-flight items, which keeps one stalled stream from absorbing the
// stage buffers' capacity indefinitely and makes the per-stream done
// queue non-blocking by construction.
//
// Ordering and durability: stages are single goroutines over FIFO
// channels, so commits happen in submission order per stream — the
// committed set after a crash is always a prefix of the submitted
// order, and every acknowledged result is committed (acked ⊆
// committed). There is one sync policy, opt-in (SyncEvery): an fsync
// every N appends, plus the commit stage's *flush epochs* — whenever its
// input drains (the natural batch boundary of a bursty stream) and
// before it delivers a stream's end-of-stream sentinel, any appends
// since the last epoch are fsynced, and an epoch in which nothing
// reached the log skips the fsync entirely. So a closed result channel
// means every acknowledged append of that stream is synced per policy —
// for IngestStream callers and for IngestBatch, which is one.
//
// Lifecycle: the stages are spawned when the first stream attaches and
// exit when the last one detaches (the input channel closes and the
// chain drains), so an idle or memory-only hub owns no pipeline
// goroutines and tests' goroutine-leak guards stay clean.
package hub

import (
	"context"
	"fmt"
	"sync"

	"entityid/internal/obs"
	"entityid/internal/relation"
)

const (
	// defaultStreamWindow bounds one stream's in-flight items (fed but
	// not yet consumed by the caller) when StreamOptions.Window is 0.
	defaultStreamWindow = 64
	// stageBuf is each stage input channel's capacity: deep enough to
	// decouple stage hiccups, shallow enough that pipeline memory stays
	// a few hundred tuples regardless of stream length.
	stageBuf = 64
)

// pipeline is the resident stage machinery, embedded in Hub. Stages
// spawn when active goes 0→1 and exit after it returns to 0; wg tracks
// a generation's stages so the next generation never runs concurrently
// with a draining predecessor.
type pipeline struct {
	//entitylint:lock rank=5
	mu     sync.Mutex
	active int
	in     chan *pipeJob
	wg     sync.WaitGroup
}

// pipeJob is one unit of pipeline work: an insert on its way through
// the stages, or the end-of-stream sentinel.
type pipeJob struct {
	s   *stream
	seq int
	eos bool
	src string
	t   relation.Tuple
	// payload is the pre-encoded WAL record, set by the encode stage on
	// durable hubs so the commit stage appends without marshaling.
	payload []byte
	// rejected short-circuits the remaining stages: res already holds
	// the outcome (admission failure, encode failure, canceled stream).
	rejected bool
	res      StreamResult
}

// stream is one attached producer: its cancellation context, credit
// window and completion queue. done's capacity (window+1: every
// in-flight item holds a credit, plus one eos sentinel) guarantees the
// commit stage's delivery never blocks, so one stream's stalled
// consumer can never wedge the shared commit stage.
type stream struct {
	ctx     context.Context
	credits chan struct{}
	done    chan *pipeJob
}

// StreamOptions configures IngestStream.
type StreamOptions struct {
	// Window bounds the stream's in-flight items: once Window items are
	// past the feeder but not yet consumed from the result channel, the
	// feeder stalls (and backpressure propagates to the input channel).
	// 0 means the default (64).
	Window int
}

// StreamResult is one IngestStream outcome. Seq is the item's 0-based
// position in the input stream; results are delivered in Seq order.
type StreamResult struct {
	Seq     int
	Receipt *Receipt
	Err     error
}

// attach registers a producer with the pipeline, spawning the stage
// goroutines if this is the first, and returns the input channel to
// feed. Every attach must be paired with exactly one detach after the
// producer's last send.
func (h *Hub) pipeAttach() chan<- *pipeJob {
	p := &h.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active++
	if p.active == 1 {
		// A previous generation may still be draining its closed
		// channels; its stages must be fully gone before new ones share
		// the metrics and the WAL flush cursor.
		p.wg.Wait()
		in := make(chan *pipeJob, stageBuf)
		mid := make(chan *pipeJob, stageBuf)
		end := make(chan *pipeJob, stageBuf)
		p.in = in
		p.wg.Add(3)
		go func() { defer p.wg.Done(); h.admitStage(in, mid) }()
		go func() { defer p.wg.Done(); h.encodeStage(mid, end) }()
		go func() { defer p.wg.Done(); h.commitStage(end) }()
	}
	return p.in
}

// detach drops one producer; the last one out closes the input channel
// and the stages drain and exit.
func (h *Hub) pipeDetach() {
	p := &h.pipe
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active--
	if p.active == 0 {
		close(p.in)
	}
}

// pipeSend hands a job to a stage input, counting queue depth and —
// when the channel is full — the backpressure stall.
func pipeSend(ch chan<- *pipeJob, j *pipeJob, depth *obs.Gauge, stall *obs.Counter) {
	depth.Add(1)
	select {
	case ch <- j:
		return
	default:
	}
	stall.Inc()
	ch <- j
}

// pipeSendCtx is pipeSend for the feeder, which must stay cancelable:
// false means the context fired before the job was accepted.
func pipeSendCtx(ctx context.Context, ch chan<- *pipeJob, j *pipeJob, depth *obs.Gauge, stall *obs.Counter) bool {
	depth.Add(1)
	select {
	case ch <- j:
		return true
	default:
	}
	stall.Inc()
	select {
	case ch <- j:
		return true
	case <-ctx.Done():
		depth.Add(-1)
		return false
	}
}

// admitStage validates each job before it costs anything: stream still
// live, hub healthy, source registered (against the lock-free topology
// snapshot — the commit path re-resolves authoritatively under its own
// locks). Rejections keep flowing through the pipe so results stay in
// submission order.
func (h *Hub) admitStage(in <-chan *pipeJob, next chan<- *pipeJob) {
	for j := range in {
		depthAdmit.Add(-1)
		if !j.eos && !j.rejected {
			if err := j.s.ctx.Err(); err != nil {
				j.rejected = true
				j.res = StreamResult{Seq: j.seq, Err: fmt.Errorf("hub: source %q: ingest canceled: %w", j.src, err)}
			} else if err := h.healthErr(); err != nil {
				ingestUnavailable.Inc()
				j.rejected = true
				j.res = StreamResult{Seq: j.seq, Err: fmt.Errorf("hub: source %q: %w", j.src, err)}
			} else if _, ok := h.topo.Load().byName[j.src]; !ok {
				j.rejected = true
				j.res = StreamResult{Seq: j.seq, Err: fmt.Errorf("hub: unknown source %q", j.src)}
			}
		}
		pipeSend(next, j, depthEncode, stallEncode)
	}
	close(next)
}

// encodeStage pre-marshals the WAL payload on durable hubs, so the
// commit stage's write-ahead append is a pure log write — the encoding
// of tuple N+1 overlaps the commit of tuple N.
func (h *Hub) encodeStage(in <-chan *pipeJob, next chan<- *pipeJob) {
	for j := range in {
		depthEncode.Add(-1)
		if !j.eos && !j.rejected && h.per != nil {
			payload, err := encodeInsert(j.src, j.t)
			if err != nil {
				j.rejected = true
				j.res = StreamResult{Seq: j.seq, Err: fmt.Errorf("hub: source %q: %w", j.src, err)}
			} else {
				j.payload = payload
			}
		}
		pipeSend(next, j, depthCommit, stallCommit)
	}
	close(next)
}

// commitStage runs the serialized tail of the pipeline: each job takes
// the full Insert commit path (prepare/block/match under the pair
// locks, transitive uniqueness, WAL append, apply, cluster fold), then
// its result is delivered to its stream's done queue — which never
// blocks, by the queue's capacity invariant. Whenever the input drains,
// and before a stream's eos sentinel is delivered, a flush epoch ends:
// appends since the last epoch are fsynced under the group-commit
// policy, and an epoch with no appends skips the fsync. Closing the
// epoch *before* the sentinel is what lets a stream's consumer read
// "result channel closed" as "my acknowledged appends are synced".
func (h *Hub) commitStage(in <-chan *pipeJob) {
	var flushed int64
	if h.per != nil {
		flushed = h.per.appended.Load()
	}
	for {
		var j *pipeJob
		var ok bool
		select {
		case j, ok = <-in:
		default:
			// Input drained: the burst is over, close the flush epoch
			// before blocking for the next one.
			h.flushEpoch(&flushed)
			j, ok = <-in
		}
		if !ok {
			return
		}
		depthCommit.Add(-1)
		if j.eos {
			h.flushEpoch(&flushed)
		} else if !j.rejected {
			rec, err := h.insertTraced(j.src, j.t, j.payload)
			j.res = StreamResult{Seq: j.seq, Receipt: rec, Err: err}
		}
		j.s.done <- j
	}
}

// flushEpoch closes one group-commit window: pending WAL appends are
// forced to stable storage, unless nothing was appended since the last
// epoch (a drained pipe of rejections costs no fsync).
func (h *Hub) flushEpoch(flushed *int64) {
	if h.per == nil {
		return
	}
	cur := h.per.appended.Load()
	if cur == *flushed {
		return
	}
	*flushed = cur
	mPipeFlushEpochs.Inc()
	h.per.syncPending()
}

// IngestStream feeds an insert stream through the resident dataflow
// pipeline: items are read from in until it closes or ctx fires,
// committed strictly in order, and each outcome is delivered on the
// returned channel (closed after the last result). At most
// StreamOptions.Window items are in flight between the feeder and the
// consumer, so a slow consumer stalls the stream at bounded memory
// instead of buffering it.
//
// Cancellation leaves an acked-prefix-committed hub: commits happen in
// submission order, every result delivered before ctx fired is
// committed (and WAL-logged ahead), and items after the cancellation
// point are either rejected with the context error or never read.
func (h *Hub) IngestStream(ctx context.Context, in <-chan Insert, opts StreamOptions) <-chan StreamResult {
	if ctx == nil {
		ctx = context.Background()
	}
	window := opts.Window
	if window <= 0 {
		window = defaultStreamWindow
	}
	s := &stream{
		ctx:     ctx,
		credits: make(chan struct{}, window),
		done:    make(chan *pipeJob, window+1),
	}
	out := make(chan StreamResult, window)
	pin := h.pipeAttach()
	mPipeStreams.Inc()
	// Feeder: credit-gate each item into the pipe, then always terminate
	// the stream with an eos sentinel — even on cancellation — so the
	// pump knows when the stream's tail has fully drained.
	go func() {
	feed:
		for seq := 0; ; seq++ {
			var item Insert
			var ok bool
			select {
			case item, ok = <-in:
				if !ok {
					break feed
				}
			case <-ctx.Done():
				break feed
			}
			select {
			case s.credits <- struct{}{}:
			case <-ctx.Done():
				break feed
			}
			j := &pipeJob{s: s, seq: seq, src: item.Source, t: item.Tuple}
			if !pipeSendCtx(ctx, pin, j, depthAdmit, stallAdmit) {
				<-s.credits // the job never entered the pipe
				break feed
			}
		}
		pipeSend(pin, &pipeJob{s: s, eos: true}, depthAdmit, stallAdmit)
	}()
	// Pump: deliver results in order, releasing each item's credit once
	// the consumer has it. After cancellation results are dropped (the
	// commits behind them stand), and the eos sentinel closes out and
	// detaches the stream.
	go func() {
		for {
			j := <-s.done
			if j.eos {
				close(out)
				h.pipeDetach()
				return
			}
			if ctx.Err() == nil {
				select {
				case out <- j.res:
				case <-ctx.Done():
				}
			}
			<-s.credits
		}
	}()
	return out
}
