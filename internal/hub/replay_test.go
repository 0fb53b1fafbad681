package hub

// Replay's failure contract, pinned record by record: whatever stops a
// replay at record k — a frame that fails its checks, an envelope or
// tuple that does not decode, an insert the hub rejects — the error,
// the count of records applied and the hub's state are those of
// applying records 1..k-1 one at a time and stopping, however far
// ahead of the applying goroutine the decoding one has read. The
// expected strings were taken from the serial replay this one replaced.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
	"entityid/internal/wal"
)

// replayLog logs a two-source workload (2 registrations, 1 link, the
// inserts in source-major order) with snapshots off and returns the
// directory, the record payloads in log order and the items inserted.
func replayLog(t *testing.T) (dir string, payloads [][]byte, items []Insert) {
	t.Helper()
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 2, Entities: 120, PresenceFrac: 0.8, HomonymRate: 0.1,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 23,
	})
	dir = t.TempDir()
	h, _ := openMultiOpts(t, dir, w, Options{})
	items = MultiInserts(w)
	for _, it := range items {
		if _, err := h.Insert(it.Source, it.Tuple); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(segmentPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := wal.NewFrameScanner(f)
	for {
		rec, _, err := sc.Next()
		if err != nil {
			break
		}
		payloads = append(payloads, rec.Payload)
	}
	if want := 3 + len(items); len(payloads) != want || len(items) < 2*defaultStreamWindow {
		t.Fatalf("log holds %d records for %d inserts, want %d and at least %d inserts",
			len(payloads), len(items), want, 2*defaultStreamWindow)
	}
	return dir, payloads, items
}

func segmentPath(dir string) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%020d.log", 1))
}

// writeSegment replaces the log's one segment with the payloads framed
// under sequence numbers 1..n; mangle, if set, edits the framed bytes of
// record k (1-based) in place.
func writeSegment(t *testing.T, dir string, payloads [][]byte, k int, mangle func(frame []byte)) {
	t.Helper()
	var data []byte
	for i, p := range payloads {
		frame, err := wal.EncodeRecord(uint64(i+1), p)
		if err != nil {
			t.Fatal(err)
		}
		if mangle != nil && i+1 == k {
			mangle(frame)
		}
		data = append(data, frame...)
	}
	if err := os.WriteFile(segmentPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// with returns payloads with record k (1-based) replaced.
func with(payloads [][]byte, k int, p []byte) [][]byte {
	out := append([][]byte(nil), payloads...)
	out[k-1] = p
	return out
}

func TestReplayStopsAtTheFailingRecord(t *testing.T) {
	dir, payloads, items := replayLog(t)
	// Record k sits in the middle of the inserts with more than a
	// channel's worth of good records behind it and ahead of it: the
	// decoding side is well past k when the applying side reaches it.
	const k = 3 + defaultStreamWindow + 9
	n := len(payloads)
	if n-k <= defaultStreamWindow {
		t.Fatalf("only %d records after record %d", n-k, k)
	}
	prev, err := wal.DecodeEnvelope(payloads[k-2])
	if err != nil {
		t.Fatal(err)
	}
	badTuple, err := wal.Envelope{Type: wal.TypeInsert, Insert: &wal.InsertRec{
		Source: prev.Insert.Source,
		Tuple:  json.RawMessage(`[7,"loc","k","phone"]`),
	}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Where record k starts in the segment: what a frame error reports.
	offK := 0
	for i, p := range payloads[:k-1] {
		frame, err := wal.EncodeRecord(uint64(i+1), p)
		if err != nil {
			t.Fatal(err)
		}
		offK += len(frame)
	}
	for _, c := range []struct {
		name     string
		payloads [][]byte
		mangle   func(frame []byte)
		want     string // Replay's error; Open prefixes "hub: open <dir>: "
	}{
		{
			name:     "corrupt frame",
			payloads: payloads,
			mangle:   func(frame []byte) { frame[len(frame)-3] ^= 0x01 },
			want: fmt.Sprintf("wal: replay %s: wal: corrupt record at offset %d: checksum mismatch",
				filepath.Base(segmentPath(dir)), offK),
		},
		{
			name:     "undecodable envelope",
			payloads: with(payloads, k, []byte(`{"type":"insert","insert":`)),
			want:     fmt.Sprintf("record %d: wal: decode envelope: unexpected end of JSON input", k),
		},
		{
			name:     "unknown record type",
			payloads: with(payloads, k, []byte(`{"type":"upsert"}`)),
			want:     fmt.Sprintf(`record %d: wal: unknown record type "upsert"`, k),
		},
		{
			name:     "undecodable tuple",
			payloads: with(payloads, k, badTuple),
			want:     fmt.Sprintf(`record %d: hub: insert record for source %q: attribute "name": number 7 for string attribute`, k, prev.Insert.Source),
		},
		{
			name:     "rejected insert",
			payloads: with(payloads, k, payloads[k-2]), // record k-1's tuple again
			want: fmt.Sprintf(`record %d: hub: source %q: relation %s: key (name,loc) violation: tuple %v duplicates tuple %d`,
				k, prev.Insert.Source, prev.Insert.Source, items[k-5].Tuple, k-5),
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			// The reference: records 1..k-1 and nothing else.
			writeSegment(t, dir, payloads[:k-1], 0, nil)
			ref, info, err := openOn(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if info.Replayed != k-1 {
				t.Fatalf("reference replayed %d records, want %d", info.Replayed, k-1)
			}
			want, wantStats := stateOf(ref), ref.Stats()
			if err := ref.Close(); err != nil {
				t.Fatal(err)
			}

			// Hub.Replay itself, over a log that opened clean and whose
			// segment is then replaced: every case, the corrupt frame
			// included, reaches it.
			writeSegment(t, dir, payloads, 0, nil)
			l, err := wal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			writeSegment(t, dir, c.payloads, k, c.mangle)
			h := New()
			got, err := h.Replay(l, 0)
			l.Close()
			if err == nil || err.Error() != c.want {
				t.Fatalf("Replay error = %v\nwant %s", err, c.want)
			}
			if got != k-1 {
				t.Fatalf("Replay applied %d records, want %d", got, k-1)
			}
			mustEqualState(t, "state after the failed replay", stateOf(h), want)
			if s := h.Stats(); s != wantStats {
				t.Fatalf("stats after the failed replay %+v, want %+v", s, wantStats)
			}
			// Records k+1.. were decoded ahead; none may have been applied.
			for _, it := range items[k-3:] {
				if _, err := h.Lookup(it.Source, it.Tuple[0], it.Tuple[1]); err == nil {
					t.Fatalf("tuple %v of a record past %d was applied", it.Tuple, k)
				}
			}

			// Open over the same bytes. A frame that fails its checks is
			// caught by the log's own open-time scan, which drops the tail
			// and reports it; everything else fails the open — closed, and
			// with no goroutine left behind.
			before := runtime.NumGoroutine()
			oh, info, err := openOn(dir, Options{})
			if c.mangle != nil {
				if err != nil {
					t.Fatalf("open over a corrupt tail: %v", err)
				}
				defer oh.Close()
				if info.Replayed != k-1 || info.LastSeq != uint64(k-1) || !strings.Contains(info.TailDamage, "checksum mismatch") {
					t.Fatalf("open over a corrupt tail: %+v", info)
				}
				mustEqualState(t, "state after the truncating open", stateOf(oh), want)
				return
			}
			if wantOpen := "hub: open " + dir + ": " + c.want; err == nil || err.Error() != wantOpen {
				t.Fatalf("Open error = %v\nwant %s", err, wantOpen)
			}
			if oh != nil || info != nil {
				t.Fatalf("failed Open returned a hub or recovery info: %v %v", oh, info)
			}
			mustNotLeakGoroutines(t, before)
		})
	}
}

// TestReplayDiscardsAbandonedGroupFarBehind: a chunked registration the
// log abandons after its first chunk, followed by far more records than
// the replay channel holds. The group is forgotten at the next record,
// counted nowhere, and everything after it replays as if it were not
// there.
func TestReplayDiscardsAbandonedGroupFarBehind(t *testing.T) {
	dir, payloads, _ := replayLog(t)
	ref, info, err := openOn(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, wantReplayed := stateOf(ref), info.Replayed
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	ghost := schema.MustNew("ghost", []schema.Attribute{{Name: "id", Kind: value.KindString}})
	begin, err := wal.Envelope{Type: wal.TypeSourceBegin, SourceBegin: &wal.SourceBeginRec{
		Name: "ghost", Schema: wal.EncodeSchema(ghost),
	}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := wal.Envelope{Type: wal.TypeSourceChunk, SourceChunk: &wal.SourceChunkRec{
		Name:   "ghost",
		Tuples: relation.AppendTuplesJSON(nil, []relation.Tuple{{value.String("g1")}, {value.String("g2")}}),
	}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) <= defaultStreamWindow {
		t.Fatalf("only %d records follow the abandoned group", len(payloads))
	}
	writeSegment(t, dir, append([][]byte{begin, chunk}, payloads...), 0, nil)
	h, info, err := openOn(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if info.Replayed != wantReplayed || info.LastSeq != uint64(len(payloads)+2) {
		t.Fatalf("replayed %d records through %d, want %d through %d",
			info.Replayed, info.LastSeq, wantReplayed, len(payloads)+2)
	}
	if _, err := h.SourceSchema("ghost"); err == nil {
		t.Fatal("the abandoned registration reached the hub")
	}
	mustEqualState(t, "replay past an abandoned group", stateOf(h), want)
}
