package hub

// The streaming ingest path. Stream ≡ sequential Insert loop, results in
// submission order, a cancelled stream leaving a committed prefix that
// holds every acknowledged item, acked ⊆ committed through a WAL fault,
// a stalled consumer stalling only its own stream — these are what the
// simulator's streams step checks (sim_test.go), so they are pinned
// schedules here. What a schedule cannot say stays as it was: the
// 2×window bound observed from outside, which fsyncs a flush epoch does
// and does not pay for, and that no goroutine outlives its stream.

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"testing"
	"time"

	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
	"entityid/internal/wal/errfs"
)

// pipeWork is the world the stream schedules share, and all its items.
func pipeWork() (workSpec, *workload, []int) {
	ws := multiWork(3, 30, 0.65, 83, 29)
	w := ws.build()
	return ws, w, span(0, len(w.items))
}

// streamAll feeds items through IngestStream and collects every result.
func streamAll(h *Hub, items []Insert, opts StreamOptions) []StreamResult {
	in := make(chan Insert)
	go func() {
		defer close(in)
		for _, it := range items {
			in <- it
		}
	}()
	var out []StreamResult
	for res := range h.IngestStream(context.Background(), in, opts) {
		out = append(out, res)
	}
	return out
}

// TestIngestStreamMatchesSequential: one stream over the whole workload
// lands where the model's one-at-a-time inserts do.
func TestIngestStreamMatchesSequential(t *testing.T) {
	ws, w, all := pipeWork()
	for _, r := range runSchedule(t, schedule{work: ws, ops: append(setup(w), streams(0, 0, 0, all))}) {
		if err := r.servesTruth(); err != nil {
			t.Fatal(err)
		}
	}
}

// oneSourceHub builds a linkless single-source hub whose inserts always
// commit — the workload for bounds and lifecycle tests where matching
// is noise.
func oneSourceHub(t *testing.T) *Hub {
	t.Helper()
	h := New()
	rel := relation.New(schema.MustNew("s", []schema.Attribute{
		{Name: "id", Kind: value.KindString},
	}, []string{"id"}))
	if err := h.AddSource("s", rel); err != nil {
		t.Fatal(err)
	}
	return h
}

// rowItems builds unique single-column inserts lo..hi-1 for oneSourceHub.
func rowItems(lo, hi int) []Insert {
	items := make([]Insert, 0, hi-lo)
	for i := lo; i < hi; i++ {
		items = append(items, Insert{Source: "s", Tuple: relation.Tuple{value.String(fmt.Sprintf("row-%d", i))}})
	}
	return items
}

// TestIngestStreamBackpressureBound pins the memory bound: with a
// consumer that reads nothing, a long stream must stall after at most
// 2×Window commits (Window results buffered on the output channel plus
// the one the commit goroutine holds) — the stream backpressures instead
// of buffering the input. Once the consumer drains, every item lands.
func TestIngestStreamBackpressureBound(t *testing.T) {
	const window, total = 8, 500
	h := oneSourceHub(t)
	items := rowItems(0, total)
	in := make(chan Insert)
	go func() {
		defer close(in)
		for _, it := range items {
			in <- it
		}
	}()
	out := h.IngestStream(context.Background(), in, StreamOptions{Window: window})

	// Consume nothing: the stream must quiesce at the bound, not run on.
	stable, last := 0, -1
	for stable < 10 {
		time.Sleep(5 * time.Millisecond)
		runtime.Gosched()
		if n, _ := h.SourceLen("s"); n == last {
			stable++
		} else {
			last = n
			stable = 0
		}
	}
	if last > 2*window || last == 0 {
		t.Fatalf("stalled consumer saw %d commits, want 1..%d (2×window)", last, 2*window)
	}
	got := 0
	for res := range out {
		if res.Err != nil {
			t.Fatalf("stream insert %d: %v", res.Seq, res.Err)
		}
		got++
	}
	if n, _ := h.SourceLen("s"); got != total || n != total {
		t.Fatalf("drained %d results, committed %d tuples, want %d", got, n, total)
	}
}

// TestIngestStreamCancelAckedPrefix: consume a third of the acks,
// cancel, kill, recover — the committed set is a prefix of the
// submission order holding at least every acknowledged item.
func TestIngestStreamCancelAckedPrefix(t *testing.T) {
	ws, w, all := pipeWork()
	ops := append(setup(w), streams(4, len(all)/3, 0, all), reopen(reopenKill))
	for _, r := range runSchedule(t, schedule{work: ws, ops: ops}) {
		if n := r.h.Stats().Tuples; n < len(all)/3 || n > len(all)/3+2*4+2 {
			t.Fatalf("%d tuples committed around a cancellation after %d acks at window 4", n, len(all)/3)
		}
	}
}

// TestIngestStreamChaosWALFault injects ENOSPC at a WAL append in the
// middle of a stream: every result acknowledged before the fault
// survives the kill, every later item failed fast, and the recovered
// hub is exactly the acknowledged set. The stream's window is 4, so each
// of the writes before the faulted one carried one to four tuples.
func TestIngestStreamChaosWALFault(t *testing.T) {
	const window, after = 4, 7
	ws, w, all := pipeWork()
	ops := append(setup(w), fault(errfs.OpWrite, "wal-", after, 0, syscall.ENOSPC, 0, 0), streams(window, 0, 0, all), reopen(reopenKill))
	for _, r := range runSchedule(t, schedule{work: ws, ops: ops}) {
		mustBe(t, r, len(ops)-2, ErrDegraded)
		if n := r.h.Stats().Tuples; n < after || n > window*after {
			t.Fatalf("recovered %d tuples, want the %d..%d acknowledged by the %d writes before the fault", n, after, window*after, after)
		}
	}
}

// TestPipelineFlushSkipsWhenNoAppends pins the group-commit accounting:
// a batch or stream in which nothing reached the log pays no fsync, one
// with appends is flushed in full by the time its results end, and a
// caller acknowledging its own Insert gets the same from FlushEpoch.
func TestPipelineFlushSkipsWhenNoAppends(t *testing.T) {
	h, _, err := openOn(t.TempDir(), Options{SyncEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rel := relation.New(schema.MustNew("s", []schema.Attribute{{Name: "id", Kind: value.KindString}}, []string{"id"}))
	if err := h.AddSource("s", rel); err != nil {
		t.Fatal(err)
	}
	h.per.syncPending() // settle the setup records
	synced := func() uint64 { s, _ := h.per.log.Synced(); return s }
	seq0, last0 := synced(), h.per.log.LastSeq()

	// Every item targets an unknown source, and an empty stream is a
	// flush window with no appends too: no sync may fire.
	bad := rowItems(0, 8)
	for i := range bad {
		bad[i].Source = "zzz"
	}
	for _, res := range h.IngestBatch(bad) {
		if res.Err == nil {
			t.Fatal("unknown-source insert accepted")
		}
	}
	streamAll(h, nil, StreamOptions{})
	if synced() != seq0 || h.per.log.LastSeq() != last0 {
		t.Fatalf("append-free windows moved the log: synced %d→%d, last %d→%d", seq0, synced(), last0, h.per.log.LastSeq())
	}
	// A batch, then a stream, with real appends: each closes its flush
	// epoch before its results end.
	for _, res := range h.IngestBatch(rowItems(0, 10)) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	seq1 := synced()
	if seq1 != h.per.log.LastSeq() || seq1 == seq0 {
		t.Fatalf("batch left unsynced appends: synced %d, last %d", seq1, h.per.log.LastSeq())
	}
	for _, res := range streamAll(h, rowItems(10, 20), StreamOptions{}) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	seq2 := synced()
	if seq2 != h.per.log.LastSeq() || seq2 == seq1 {
		t.Fatalf("stream left unsynced appends at close: synced %d, last %d", seq2, h.per.log.LastSeq())
	}
	// Insert alone keeps only the every-N sync; FlushEpoch — the method
	// the stream's epochs are — leaves nothing acknowledged unsynced.
	if _, err := h.Insert("s", relation.Tuple{value.String("direct")}); err != nil {
		t.Fatal(err)
	}
	if synced() != seq2 || h.per.log.LastSeq() == seq2 {
		t.Fatalf("a lone Insert under SyncEvery 100: synced %d→%d, last %d", seq2, synced(), h.per.log.LastSeq())
	}
	h.FlushEpoch()
	if synced() != h.per.log.LastSeq() {
		t.Fatalf("FlushEpoch left unsynced appends: synced %d, last %d", synced(), h.per.log.LastSeq())
	}
	New().FlushEpoch() // a memory-only hub has nothing to flush
}

// TestPipelineGoroutineLifecycle pins the stream lifecycle: a batch or
// stream's goroutines are gone once its result channel is closed, so
// churning the ingest APIs leaks nothing and an idle hub owns no ingest
// goroutines.
func TestPipelineGoroutineLifecycle(t *testing.T) {
	h := oneSourceHub(t)
	before := runtime.NumGoroutine()
	for round := 0; round < 50; round++ {
		items := rowItems(8*round, 8*round+8)
		if round%2 == 0 {
			for _, res := range h.IngestBatch(items) {
				if res.Err != nil {
					t.Fatal(res.Err)
				}
			}
			continue
		}
		for _, res := range streamAll(h, items, StreamOptions{Window: 3}) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}
	if got, _ := h.SourceLen("s"); got != 400 {
		t.Fatalf("committed %d tuples, want 400", got)
	}
	mustNotLeakGoroutines(t, before+5)
}

// TestIngestStreamsIsolatedAndOrdered runs four streams over linked
// sources, the first one's consumer reading nothing until the others
// are done: they complete all the same, every stream's results arrive in
// Seq order, and the interleaving the commit lock chose is what its log
// recorded — a clean reopen, a sequential replay, lands on the state the
// model adopted from the live hub.
func TestIngestStreamsIsolatedAndOrdered(t *testing.T) {
	ws := multiWork(3, 60, 0.65, 131, 31)
	w := ws.build()
	parts := make([][]int, 4)
	for i := range w.items {
		parts[i%4] = append(parts[i%4], i)
	}
	ops := append(setup(w), streams(2, -1, 0, parts...), reopen(reopenClose))
	for _, r := range runSchedule(t, schedule{work: ws, ops: ops}) {
		if err := r.servesTruth(); err != nil {
			t.Fatal(err)
		}
	}
}
