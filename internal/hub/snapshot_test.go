package hub

// The snapshot subsystem through what production runs — Open,
// SnapshotNow and the background writer over a data directory. That a
// snapshot recovers the state it was cut from is the simulator's check
// on every seed (sim_test.go), and the multi-chunk and chunked-AddSource
// paths are pinned schedules of it; what stays hand-written is bytes and
// economics: re-encoding to the same manifest, what an incremental
// snapshot rewrites, cuts taken while ingest runs, bit rot.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/wal"
)

// snapshottedDir ingests a workload into a fresh durable hub in dir,
// snapshots it and closes it.
func snapshottedDir(t testing.TB, dir string, cfg datagen.MultiConfig, chunkBytes int) {
	t.Helper()
	w := datagen.MustMultiGenerate(cfg)
	h, _ := openMultiOpts(t, dir, w, Options{ChunkBytes: chunkBytes})
	for i, res := range h.IngestBatch(MultiInserts(w)) {
		if res.Err != nil {
			t.Fatalf("ingest %d: %v", i, res.Err)
		}
	}
	if err := h.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotDeterministicRoundTrip pins snapshot→reopen→snapshot
// identity: a hub recovered from a snapshot re-encodes every section to
// exactly the bytes it was loaded from — same chunk boundaries, same
// content hashes — and commits a byte-identical manifest.
func TestSnapshotDeterministicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snapshottedDir(t, dir, datagen.MultiConfig{
		Sources: 3, Entities: 30, PresenceFrac: 0.7, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 41,
	}, 0)
	man1, err := os.ReadFile(filepath.Join(dir, snapshotManifest))
	if err != nil {
		t.Fatal(err)
	}
	h2, info, err := openOn(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if !info.FromSnapshot || info.Replayed != 0 {
		t.Fatalf("reopen did not come up from the snapshot alone: %+v", info)
	}
	// Forget the loaded manifest so nothing carries forward by reference:
	// every section is re-encoded from the recovered state.
	h2.snap.prevMan = nil
	if err := h2.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if st := h2.LastSnapshot(); st.SectionsReused != 0 || st.SectionsWritten == 0 {
		t.Fatalf("second snapshot did not re-encode: %+v", st)
	}
	man2, err := os.ReadFile(filepath.Join(dir, snapshotManifest))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(man1, man2) {
		t.Fatalf("snapshot→reopen→snapshot changed the manifest (section hashes differ):\n%s\n%s", man1, man2)
	}
}

// TestSnapshotMultiChunkBeyondFrameCap lowers the WAL frame cap so the
// hub's encoded state no longer fits one frame (the 256MB ceiling in
// miniature): seed relations too large for one record go in as
// source_begin/source_chunk groups, the snapshot persists multi-chunk
// sections with every frame under the cap, and recovery comes up from
// it alone.
func TestSnapshotMultiChunkBeyondFrameCap(t *testing.T) {
	defer wal.SetFrameCapForTesting(16 << 10)()
	ws := multiWork(3, 60, 0.7, 43, 43)
	ws.seeded = 100
	w := ws.build()
	ops := append(append(setup(w), seq(0, len(w.items))...), snap(), reopen(reopenClose))
	for _, r := range runSchedule(t, schedule{work: ws, opts: simOpts{chunkBytes: 2 << 10}, ops: ops}) {
		if info := r.infos[1]; !info.FromSnapshot || info.Replayed != 0 {
			t.Fatalf("recovery ignored the chunked snapshot: %+v", info)
		}
		man, err := readManifest(wal.OS, r.dir)
		if err != nil {
			t.Fatal(err)
		}
		chunks, multi, total := 0, 0, int64(0)
		for _, sec := range man.Sections {
			chunks += sec.Chunks
			total += sec.Bytes
			if sec.Chunks > 1 {
				multi++
			}
		}
		if chunks < 8 || multi < 4 || total <= int64(wal.FrameCap()) {
			t.Fatalf("expected a genuinely multi-chunk snapshot past the %d-byte frame cap, got %d chunks, %d multi-chunk sections, %d bytes; grow the workload",
				wal.FrameCap(), chunks, multi, total)
		}
	}
}

// TestJumboAddSourceReplaysFromChunks pins the chunked AddSource log
// path without a snapshot: the seed relation splits across
// source_begin/source_chunk records and replays to the same relation.
func TestJumboAddSourceReplaysFromChunks(t *testing.T) {
	ws := multiWork(1, 40, 1, 17, 17)
	ws.seeded = 40
	for _, r := range runSchedule(t, schedule{work: ws, opts: simOpts{chunkBytes: 1 << 10}, ops: []op{src(0), reopen(reopenClose)}}) {
		data, err := os.ReadFile(filepath.Join(r.dir, fmt.Sprintf("wal-%020d.log", 1)))
		if err != nil {
			t.Fatal(err)
		}
		chunks := strings.Count(string(data), `"type":"`+wal.TypeSourceChunk+`"`)
		if !strings.Contains(string(data), wal.TypeSourceBegin) || r.infos[1].Replayed != 1+chunks || r.h.Stats().Tuples != 40 {
			t.Fatalf("jumbo AddSource: %d chunk records, recovery %+v, %+v", chunks, r.infos[1], r.h.Stats())
		}
	}
}

// TestSnapshotIncrementalCarryForward pins the economics: when almost
// nothing changed between snapshots, almost nothing is rewritten —
// unchanged source sections carry forward by reference and the bytes
// written are o(full state).
func TestSnapshotIncrementalCarryForward(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 4, Entities: 120, PresenceFrac: 0.7, HomonymRate: 0.1,
		MissingPhone: 0.1, DirtyPhone: 0.1, Seed: 47,
	})
	dir := t.TempDir()
	h, _ := openMultiOpts(t, dir, w, Options{})
	items := MultiInserts(w)
	for _, it := range items {
		if _, err := h.Insert(it.Source, it.Tuple); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	full := h.LastSnapshot()
	if full.SectionsWritten == 0 || full.BytesWritten == 0 {
		t.Fatalf("full snapshot wrote nothing: %+v", full)
	}
	if full.SectionsReused != 0 {
		t.Fatalf("first snapshot reused sections: %+v", full)
	}

	// An unchanged hub re-snapshots for (almost) free: every section
	// carries forward, only the manifest is rewritten.
	if err := h.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	idle := h.LastSnapshot()
	if idle.SectionsWritten != 0 || idle.SectionsReused != full.SectionsWritten {
		t.Fatalf("idle snapshot rewrote sections: %+v (full %+v)", idle, full)
	}

	// Change one source (~1% of tuples): only that source's section,
	// the pair sections it participates in and the partition re-encode.
	extra := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 4, Entities: 2, PresenceFrac: 1, Seed: 48,
	})
	n := 0
	for _, tup := range extra.Relations[0].Tuples() {
		if _, err := h.Insert(w.Names[0], tup.Clone()); err == nil {
			n++
		}
	}
	if n == 0 {
		t.Fatal("no incremental inserts landed")
	}
	if err := h.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	incr := h.LastSnapshot()
	unchangedSources := len(w.Names) - 1
	if incr.SectionsReused < unchangedSources {
		t.Fatalf("incremental snapshot reused %d sections, want at least the %d unchanged sources (%+v)",
			incr.SectionsReused, unchangedSources, incr)
	}
	if incr.BytesWritten*2 >= full.BytesWritten {
		t.Fatalf("incremental snapshot wrote %d bytes, not o(full %d)", incr.BytesWritten, full.BytesWritten)
	}
	want := stateOf(h)
	h.quiesce()
	h2, info, err := openOn(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if !info.FromSnapshot || info.Replayed != 0 {
		t.Fatalf("incremental snapshot not used for recovery: %+v", info)
	}
	mustEqualState(t, "incremental recovery", stateOf(h2), want)
}

// TestSnapshotV2TamperDetection corrupts the on-disk form two ways — a
// flipped byte in a section file (content hash, even though the file's
// own frames may still parse) and a flipped byte in the manifest (its
// own frame CRC) — both of which must fail the open.
func TestSnapshotV2TamperDetection(t *testing.T) {
	dir := t.TempDir()
	snapshottedDir(t, dir, datagen.MultiConfig{
		Sources: 3, Entities: 24, PresenceFrac: 0.7, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 59,
	}, 0)
	secs, err := filepath.Glob(filepath.Join(dir, snapSecDir, "*"+snapSecSuffix))
	if err != nil || len(secs) == 0 {
		t.Fatalf("sections: %v %v", secs, err)
	}
	for _, path := range []string{secs[0], filepath.Join(dir, snapshotManifest)} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rotted := append([]byte(nil), data...)
		rotted[len(rotted)/2] ^= 0x10
		if err := os.WriteFile(path, rotted, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := openOn(dir, Options{}); err == nil {
			t.Fatalf("doctored %s loaded", filepath.Base(path))
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Control: with both files restored the directory opens again.
	h, info, err := openOn(dir, Options{})
	if err != nil || !info.FromSnapshot {
		t.Fatalf("restored directory: %v %+v", err, info)
	}
	h.Close()
}

// TestSnapshotDuringIngest cuts snapshots concurrently with a streaming
// ingest (run under -race): every cut must be internally consistent —
// what it committed to disk loads through the full verification (every
// matching table rebuilt, the partition refolded), never a torn capture.
func TestSnapshotDuringIngest(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 3, Entities: 60, PresenceFrac: 0.7, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 61,
	})
	dir := t.TempDir()
	h, _ := openMultiOpts(t, dir, w, Options{})
	items := MultiInserts(w)
	done := make(chan []InsertResult, 1)
	go func() { done <- h.IngestBatch(items) }()
	for i := 0; i < 5; i++ {
		if err := h.SnapshotNow(); err != nil {
			t.Errorf("concurrent snapshot %d: %v", i, err)
			continue
		}
		// The directory is locked by h, so load what Open would: the
		// committed manifest's sections, verified and assembled.
		man, err := readManifest(wal.OS, dir)
		if err != nil {
			t.Errorf("concurrent snapshot %d: %v", i, err)
			continue
		}
		h2, err := loadSnapshotSections(wal.OS, dir, man, nil)
		if err != nil {
			t.Errorf("concurrent snapshot %d failed verification: %v", i, err)
			continue
		}
		if got := h2.Stats().Tuples; got > len(items) {
			t.Errorf("concurrent snapshot %d holds %d tuples, more than ever ingested", i, got)
		}
	}
	for _, res := range <-done {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	// The final quiescent snapshot round-trips exactly.
	if err := h.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	want := stateOf(h)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, info, err := openOn(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if !info.FromSnapshot || info.Replayed != 0 {
		t.Fatalf("post-ingest snapshot not used: %+v", info)
	}
	mustEqualState(t, "post-ingest snapshot", stateOf(h2), want)
}
