package hub

// Harness for the streaming ingest path: IngestStream must be
// observationally identical to the sequential Insert loop (same final
// state, results in submission order), hold its memory bound under a
// stalled consumer (backpressure, not buffering) without stalling any
// other stream, leave exactly an acked prefix committed across
// cancellation + crash + recovery, keep every acknowledged insert
// through injected WAL faults at commit points, skip group-commit
// fsyncs for windows that appended nothing, and spawn no goroutines
// that outlive the streams. Run under -race: every stream is two
// goroutines, and concurrent streams share the hub's locks.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"entityid/internal/datagen"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
	"entityid/internal/wal/errfs"
)

// pipeWorkload is the shared multi-source workload for the stream
// harness (distinct seed from the other harnesses' workloads).
func pipeWorkload(t *testing.T) (*datagen.MultiWorkload, []Insert) {
	t.Helper()
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 3, Entities: 30, PresenceFrac: 0.65, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 83,
	})
	return w, shuffled(w, 29)
}

// streamAll feeds items through IngestStream and collects every result.
func streamAll(h *Hub, ctx context.Context, items []Insert, opts StreamOptions) []StreamResult {
	in := make(chan Insert)
	go func() {
		defer close(in)
		for _, it := range items {
			select {
			case in <- it:
			case <-ctx.Done():
				return
			}
		}
	}()
	var out []StreamResult
	for res := range h.IngestStream(ctx, in, opts) {
		out = append(out, res)
	}
	return out
}

// TestIngestStreamMatchesSequential pins stream ≡ sequential: the same
// items through IngestStream and through an Insert loop land on
// bit-for-bit the same hub state, with results in submission order.
func TestIngestStreamMatchesSequential(t *testing.T) {
	w, items := pipeWorkload(t)
	ref, err := NewFromMulti(w)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if _, err := ref.Insert(it.Source, it.Tuple); err != nil {
			t.Fatalf("reference insert %d: %v", i, err)
		}
	}

	h, err := NewFromMulti(w)
	if err != nil {
		t.Fatal(err)
	}
	results := streamAll(h, context.Background(), items, StreamOptions{})
	if len(results) != len(items) {
		t.Fatalf("%d results for %d items", len(results), len(items))
	}
	for i, res := range results {
		if res.Seq != i {
			t.Fatalf("result %d carries seq %d: stream reordered", i, res.Seq)
		}
		if res.Err != nil {
			t.Fatalf("stream insert %d: %v", i, res.Err)
		}
	}
	mustEqualState(t, "stream vs sequential", stateOf(h), stateOf(ref))
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

// rowItems builds n unique single-column inserts for oneSourceHub.
func rowItems(n int) []Insert {
	items := make([]Insert, n)
	for i := range items {
		items[i] = Insert{Source: "s", Tuple: relation.Tuple{value.String(fmt.Sprintf("row-%d", i))}}
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
	items := rowItems(total)

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
	if last > 2*window {
		t.Fatalf("stalled consumer saw %d commits, want ≤ %d (2×window)", last, 2*window)
	}
	if last == 0 {
		t.Fatal("stream made no progress at all")
	}

	got := 0
	for res := range out {
		if res.Err != nil {
			t.Fatalf("stream insert %d: %v", res.Seq, res.Err)
		}
		got++
	}
	if got != total {
		t.Fatalf("drained %d results, want %d", got, total)
	}
	if n, _ := h.SourceLen("s"); n != total {
		t.Fatalf("committed %d tuples, want %d", n, total)
	}
}

// TestIngestStreamCancelAckedPrefix pins the cancellation contract end
// to end: consume K acks, cancel, crash the durable hub, recover — the
// committed set must be a prefix of the submission order containing at
// least every acked item.
func TestIngestStreamCancelAckedPrefix(t *testing.T) {
	w, items := pipeWorkload(t)
	dir := t.TempDir()
	h, _ := openDurableMulti(t, dir, w, 0)

	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan Insert)
	go func() {
		defer close(in)
		for _, it := range items {
			select {
			case in <- it:
			case <-ctx.Done():
				return
			}
		}
	}()
	out := h.IngestStream(ctx, in, StreamOptions{Window: 4})
	acked := 0
	for res := range out {
		if res.Err != nil {
			t.Fatalf("stream insert %d: %v", res.Seq, res.Err)
		}
		if acked = res.Seq + 1; acked == len(items)/3 {
			cancel()
			break
		}
	}
	for range out { // drain: post-cancel results are dropped by contract
	}
	defer cancel()

	// Crash without Close and recover.
	h.per.quiesce()
	h2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer h2.Close()

	n := h2.Stats().Tuples
	if n < acked {
		t.Fatalf("recovered %d tuples < %d acked: an acknowledged insert was lost", n, acked)
	}
	if n > len(items) {
		t.Fatalf("recovered %d tuples from a %d-item stream", n, len(items))
	}
	// Prefix, exactly: the recovered hub equals a sequential run over
	// the first n submitted items — nothing out of order, nothing past
	// the cancellation frontier reordered in.
	ref, err := NewFromMulti(w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := ref.Insert(items[i].Source, items[i].Tuple); err != nil {
			t.Fatalf("reference insert %d: %v", i, err)
		}
	}
	mustEqualState(t, "recovered vs submitted prefix", stateOf(h2), stateOf(ref))
}

// TestIngestStreamChaosWALFault injects ENOSPC at a WAL append in the
// middle of a stream — at a commit point — and checks the
// acked/failed split is honest: every result acked ok before the fault
// survives crash + recovery, every later item failed fast, and the
// recovered hub is exactly the acked set.
func TestIngestStreamChaosWALFault(t *testing.T) {
	w, items := pipeWorkload(t)
	fs := errfs.New(nil)
	dir := t.TempDir()
	h := openChaosMulti(t, dir, w, 0, fs)
	fs.Inject(errfs.Rule{Op: errfs.OpWrite, PathContains: "wal-", After: len(items) / 2, Err: syscall.ENOSPC})

	results := streamAll(h, context.Background(), items, StreamOptions{})
	if len(results) != len(items) {
		t.Fatalf("%d results for %d items", len(results), len(items))
	}
	var okSeqs []int
	for _, res := range results {
		if res.Err == nil {
			okSeqs = append(okSeqs, res.Seq)
		}
	}
	if len(okSeqs) == 0 || len(okSeqs) == len(items) {
		t.Fatalf("fault did not split the stream: %d/%d ok", len(okSeqs), len(items))
	}
	h.per.quiesce()

	h2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer h2.Close()
	present := map[string]bool{}
	for name, tuples := range stateOf(h2).rels {
		for _, tup := range tuples {
			present[name+"|"+tup.Key()] = true
		}
	}
	for _, seq := range okSeqs {
		key := items[seq].Source + "|" + items[seq].Tuple.Key()
		if !present[key] {
			t.Fatalf("acked insert %d (%s) lost to the WAL fault", seq, key)
		}
	}
	if got := h2.Stats().Tuples; got != len(okSeqs) {
		t.Fatalf("recovered %d tuples, want exactly the %d acked", got, len(okSeqs))
	}
}

// TestPipelineFlushSkipsWhenNoAppends pins the group-commit fix: a
// batch (or stream window) in which nothing reached the log must not
// pay an fsync, while one with appends must flush fully by its end.
func TestPipelineFlushSkipsWhenNoAppends(t *testing.T) {
	dir := t.TempDir()
	h, _, err := Open(dir, Options{SyncEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rel := relation.New(schema.MustNew("s", []schema.Attribute{
		{Name: "id", Kind: value.KindString},
	}, []string{"id"}))
	if err := h.AddSource("s", rel); err != nil {
		t.Fatal(err)
	}
	h.per.syncPending() // settle the setup records
	seq0, _ := h.per.log.Synced()
	last0 := h.per.log.LastSeq()

	// All-rejected batch: every item targets an unknown source, nothing
	// is appended, no sync may fire.
	bad := make([]Insert, 8)
	for i := range bad {
		bad[i] = Insert{Source: "zzz", Tuple: relation.Tuple{value.String(fmt.Sprintf("x-%d", i))}}
	}
	for _, res := range h.IngestBatch(bad) {
		if res.Err == nil {
			t.Fatal("unknown-source insert accepted")
		}
	}
	// An empty stream is a flush window with no appends too.
	empty := make(chan Insert)
	close(empty)
	for range h.IngestStream(context.Background(), empty, StreamOptions{}) {
	}
	if seq, _ := h.per.log.Synced(); seq != seq0 || h.per.log.LastSeq() != last0 {
		t.Fatalf("append-free windows moved the log: synced %d→%d, last %d→%d",
			seq0, seq, last0, h.per.log.LastSeq())
	}

	// A batch with real appends flushes everything by its end.
	for _, res := range h.IngestBatch(rowItems(10)) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	seq1, _ := h.per.log.Synced()
	if seq1 != h.per.log.LastSeq() || seq1 == seq0 {
		t.Fatalf("batch left unsynced appends: synced %d, last %d", seq1, h.per.log.LastSeq())
	}

	// The same holds for a plain stream: the flush epoch closes before
	// the result channel does, so once that is closed every acknowledged
	// append is synced — no later drain to wait for.
	for _, res := range streamAll(h, context.Background(), rowItems(20)[10:], StreamOptions{}) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	seq2, _ := h.per.log.Synced()
	if seq2 != h.per.log.LastSeq() || seq2 == seq1 {
		t.Fatalf("stream left unsynced appends at close: synced %d, last %d", seq2, h.per.log.LastSeq())
	}

	// And for a caller that acknowledges its own Insert: Insert alone
	// keeps only the every-N sync, the caller's FlushEpoch — the method
	// the stream's epochs are — leaves nothing acknowledged unsynced.
	if _, err := h.Insert("s", relation.Tuple{value.String("direct")}); err != nil {
		t.Fatal(err)
	}
	if seq, _ := h.per.log.Synced(); seq != seq2 || h.per.log.LastSeq() == seq2 {
		t.Fatalf("a lone Insert under SyncEvery 100: synced %d→%d, last %d", seq2, seq, h.per.log.LastSeq())
	}
	h.FlushEpoch()
	if seq, _ := h.per.log.Synced(); seq != h.per.log.LastSeq() {
		t.Fatalf("FlushEpoch left unsynced appends: synced %d, last %d", seq, h.per.log.LastSeq())
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
	n := 0
	for round := 0; round < 50; round++ {
		items := make([]Insert, 8)
		for i := range items {
			items[i] = Insert{Source: "s", Tuple: relation.Tuple{value.String(fmt.Sprintf("r%d-%d", round, i))}}
			n++
		}
		if round%2 == 0 {
			for _, res := range h.IngestBatch(items) {
				if res.Err != nil {
					t.Fatal(res.Err)
				}
			}
		} else {
			for _, res := range streamAll(h, context.Background(), items, StreamOptions{Window: 3}) {
				if res.Err != nil {
					t.Fatal(res.Err)
				}
			}
		}
	}
	if got, _ := h.SourceLen("s"); got != n {
		t.Fatalf("committed %d tuples, want %d", got, n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+5 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+5 {
		t.Fatalf("goroutine leak: %d before, %d after 50 ingest rounds", before, after)
	}
}

// TestIngestStreamsIsolatedAndOrdered runs concurrent streams over
// linked sources beside one whose consumer reads nothing: every other
// stream completes (a stalled consumer stalls only its own stream), each
// stream's results arrive in Seq order, and the interleaving the hub's
// locks chose is exactly what its log recorded — the directory reopens
// (a sequential replay of the WAL) to the live state.
func TestIngestStreamsIsolatedAndOrdered(t *testing.T) {
	const streams, window = 4, 2
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 3, Entities: 60, PresenceFrac: 0.65, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 131,
	})
	items := shuffled(w, 31)
	dir := t.TempDir()
	h, _ := openDurableMulti(t, dir, w, 0)

	parts := make([][]Insert, streams)
	for i, it := range items {
		parts[i%streams] = append(parts[i%streams], it)
	}
	if len(parts[0]) <= 2*window {
		t.Fatalf("stalled stream has %d items: too few to stall at window %d", len(parts[0]), window)
	}
	outs := make([]<-chan StreamResult, streams)
	for k, part := range parts {
		in := make(chan Insert)
		go func() {
			defer close(in)
			for _, it := range part {
				in <- it
			}
		}()
		outs[k] = h.IngestStream(context.Background(), in, StreamOptions{Window: window})
	}

	// Stream 0's consumer reads nothing until every other stream is done.
	results := make([][]StreamResult, streams)
	var wg sync.WaitGroup
	for k := 1; k < streams; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for res := range outs[k] {
				results[k] = append(results[k], res)
			}
		}()
	}
	others := make(chan struct{})
	go func() { wg.Wait(); close(others) }()
	select {
	case <-others:
	case <-time.After(30 * time.Second):
		t.Fatal("streams beside a stalled consumer did not complete")
	}
	committed := func(rs [][]StreamResult) int {
		n := 0
		for _, part := range rs {
			for _, res := range part {
				if res.Err == nil {
					n++
				}
			}
		}
		return n
	}
	if ahead := h.Stats().Tuples - committed(results); ahead > 2*window {
		t.Fatalf("stalled stream committed %d items, want ≤ %d (2×window)", ahead, 2*window)
	}
	for res := range outs[0] {
		results[0] = append(results[0], res)
	}

	for k, part := range results {
		if len(part) != len(parts[k]) {
			t.Fatalf("stream %d: %d results for %d items", k, len(part), len(parts[k]))
		}
		for i, res := range part {
			if res.Seq != i {
				t.Fatalf("stream %d: result %d carries seq %d", k, i, res.Seq)
			}
		}
	}
	if got, want := h.Stats().Tuples, committed(results); got != want || want == 0 {
		t.Fatalf("hub holds %d tuples, streams acknowledged %d", got, want)
	}

	live := stateOf(h)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer h2.Close()
	mustEqualState(t, "replayed log vs live interleaving", stateOf(h2), live)
}
