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
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/schema"
	"entityid/internal/store"
	"entityid/internal/value"
	"entityid/internal/wal"
)

// loadSnapshotSections rebuilds a hub from a manifest's run files alone,
// the way Open does before it reads the log, onto backend b (nil means
// memory): for a directory another hub holds locked, or a doctored
// manifest no log goes with.
func loadSnapshotSections(fsys wal.FS, dir string, man *snapManifest, b store.Backend, info *RecoveryInfo) (*Hub, error) {
	r := &recovery{h: NewWithBackend(b)}
	if err := r.loadSnapshot(fsys, dir, man, info); err != nil {
		return nil, err
	}
	if err := r.finish(info, nil); err != nil {
		return nil, err
	}
	return r.h, nil
}

// snapshottedDir ingests a workload into a fresh durable hub in dir,
// snapshots it with runs of runItems (0: the constant) and closes it.
func snapshottedDir(t testing.TB, dir string, cfg datagen.MultiConfig, chunkBytes, runItems int) {
	t.Helper()
	w := datagen.MustMultiGenerate(cfg)
	h, _ := openMultiOpts(t, dir, w, Options{chunkBytes: chunkBytes})
	sealAt(h, runItems)
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

// sealAt makes h cut its runs every n items instead of every
// snapRunItems (0 leaves the constant), so a test-sized hub has sealed
// runs; the loader takes the run length from the manifest.
func sealAt(h *Hub, n int) {
	if n > 0 {
		h.snap.runItems = n
	}
}

// editManifest commits dir's manifest again as edit leaves it.
func editManifest(t testing.TB, dir string, edit func(*snapManifest)) {
	t.Helper()
	man, err := readManifest(wal.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	edit(man)
	frame, err := encodeManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotManifest), frame, 0o644); err != nil {
		t.Fatal(err)
	}
}

// rewriteRun re-encodes the run entry names as edit leaves its decoded
// content and re-addresses it — new file, new content hash, new entry —
// so every frame CRC, run hash and count stays self-consistent.
func rewriteRun(t testing.TB, dir string, id runID, entry *snapRun, edit func(*decRun)) {
	t.Helper()
	// A run is read against its manifest slot's schema.
	var sch *schema.Schema
	man, err := readManifest(wal.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range man.Sources {
		if s.Name == id.name {
			if sch, err = wal.DecodeSchema(s.Schema); err != nil {
				t.Fatal(err)
			}
		}
	}
	d, err := readRunFile(wal.OS, dir, id, *entry, sch, man.RunItems)
	if err != nil {
		t.Fatal(err)
	}
	edit(d)
	if *entry, err = newDirSink(wal.OS, dir, nil, man.RunItems).write(id, d.tuples, 0); err != nil {
		t.Fatal(err)
	}
}

// respell re-frames run, a run file's bytes, with chunk 1's payload as
// edit leaves it, under fresh CRCs.
func respell(t testing.TB, run []byte, edit func(string) string) []byte {
	t.Helper()
	var out []byte
	frames := wal.NewFrameCutter(run)
	for {
		rec, _, err := frames.Next()
		if err != nil {
			return out
		}
		payload := string(rec.Payload)
		if out == nil {
			if payload = edit(payload); payload == string(rec.Payload) {
				t.Fatalf("respelling left %s as it was", payload)
			}
		}
		frame, err := wal.EncodeRecord(rec.Seq, []byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frame...)
	}
}

// respellRun writes the run entry names again, with chunk 1 respelled,
// as a file of its own content address, and points entry at it: every
// frame CRC, the run hash and the byte count agree.
func respellRun(t testing.TB, dir string, entry *snapRun, edit func(string) string) {
	t.Helper()
	data, err := os.ReadFile(secPath(dir, entry.Hash))
	if err != nil {
		t.Fatal(err)
	}
	data = respell(t, data, edit)
	sum := sha256.Sum256(data)
	entry.Hash, entry.Bytes = hex.EncodeToString(sum[:]), int64(len(data))
	if err := os.WriteFile(secPath(dir, entry.Hash), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotDeterministicRoundTrip pins snapshot→reopen→snapshot
// identity: a hub recovered from a snapshot re-encodes every source run to
// exactly the bytes it was loaded from — same run and chunk boundaries,
// same content hashes — and, each pair rebuilt over the relations the
// runs hold, commits a byte-identical manifest.
func TestSnapshotDeterministicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snapshottedDir(t, dir, datagen.MultiConfig{
		Sources: 3, Entities: 30, PresenceFrac: 0.7, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 41,
	}, 0, 8)
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
	// every run is re-encoded from the recovered state.
	h2.snap.prevMan = nil
	sealAt(h2, 8)
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
		t.Fatalf("snapshot→reopen→snapshot changed the manifest (run hashes differ):\n%s\n%s", man1, man2)
	}
}

// TestSnapshotMultiChunkBeyondFrameCap lowers the WAL frame cap so the
// hub's encoded state no longer fits one frame (the 256MB ceiling in
// miniature): seed relations too large for one record go in as
// source_begin/source_chunk groups, the snapshot persists multi-chunk
// runs with every frame under the cap, and recovery comes up from
// it alone.
func TestSnapshotMultiChunkBeyondFrameCap(t *testing.T) {
	defer wal.SetFrameCapForTesting(8 << 10)()
	ws := multiWork(3, 60, 0.7, 43, 43)
	ws.seeded = 100
	w := ws.build()
	ops := append(append(setup(w), seq(0, len(w.items))...), snap(), reopen(reopenClose))
	for _, r := range runSchedule(t, schedule{work: ws, opts: simOpts{chunkBytes: 1 << 10}, ops: ops}) {
		if info := r.infos[1]; !info.FromSnapshot || info.Replayed != 0 {
			t.Fatalf("recovery ignored the chunked snapshot: %+v", info)
		}
		man, err := readManifest(wal.OS, r.dir)
		if err != nil {
			t.Fatal(err)
		}
		chunks, multi, total := 0, 0, int64(0)
		man.eachRun(func(_ runID, run snapRun) {
			chunks += run.Chunks
			total += run.Bytes
			if run.Chunks > 1 {
				multi++
			}
		})
		if chunks < 8 || multi < 3 || total <= int64(wal.FrameCap()) {
			t.Fatalf("expected a genuinely multi-chunk snapshot past the %d-byte frame cap, got %d chunks, %d multi-chunk runs, %d bytes; grow the workload",
				wal.FrameCap(), chunks, multi, total)
		}
	}
}

// TestJumboAddSourceReplaysFromChunks pins the chunked AddSource log
// path without a snapshot: the seed relation splits across a
// source_begin record and the run records of its seeds, each but the last
// marked more, and replays to the same relation.
func TestJumboAddSourceReplaysFromChunks(t *testing.T) {
	ws := multiWork(1, 40, 1, 17, 17)
	ws.seeded = 40
	for _, r := range runSchedule(t, schedule{work: ws, opts: simOpts{chunkBytes: 1 << 10}, ops: []op{src(0), reopen(reopenClose)}}) {
		data, err := os.ReadFile(filepath.Join(r.dir, fmt.Sprintf("wal-%020d.log", 1)))
		if err != nil {
			t.Fatal(err)
		}
		chunks, more := strings.Count(string(data), ` {"source":`), strings.Count(string(data), `,"more":true,`)
		if !strings.Contains(string(data), wal.TypeSourceBegin) || chunks < 2 || more != chunks-1 || r.infos[1].Replayed != 1+chunks || r.h.Stats().Tuples != 40 {
			t.Fatalf("jumbo AddSource: %d chunk records, recovery %+v, %+v", chunks, r.infos[1], r.h.Stats())
		}
	}
}

// TestSnapshotIncrementalCarryForward pins the economics: when almost
// nothing changed between snapshots, almost nothing is rewritten —
// whether the little that changed went into one source or was spread
// over all of them, every sealed run carries forward by reference and
// the bytes written are o(full state).
func TestSnapshotIncrementalCarryForward(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 4, Entities: 120, PresenceFrac: 0.7, HomonymRate: 0.1,
		MissingPhone: 0.1, DirtyPhone: 0.1, Seed: 47,
	})
	dir := t.TempDir()
	h, _ := openMultiOpts(t, dir, w, Options{})
	sealAt(h, 16)
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
		t.Fatalf("first snapshot reused runs: %+v", full)
	}
	sequences := len(h.sources) + len(h.pairs)

	// An unchanged hub re-snapshots for (almost) free: every run carries
	// forward, only the manifest is rewritten.
	if err := h.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	idle := h.LastSnapshot()
	if idle.SectionsWritten != 0 || idle.SectionsReused != full.SectionsWritten {
		t.Fatalf("idle snapshot rewrote runs: %+v (full %+v)", idle, full)
	}

	// Change ~1% of the tuples, first in one source, then in every source:
	// at most the last run of each sequence (and what the inserts newly
	// fill) is written, everything sealed is carried.
	extra := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 4, Entities: 4, PresenceFrac: 1, Seed: 48,
	})
	runs := full.SectionsWritten
	for leg, into := range [][]int{{0}, {0, 1, 2, 3}} {
		n := 0
		for _, k := range into {
			for _, tup := range extra.Relations[k].Tuples()[2*leg : 2*leg+2] {
				if _, err := h.Insert(w.Names[k], tup.Clone()); err == nil {
					n++
				}
			}
		}
		if n == 0 {
			t.Fatal("no incremental inserts landed")
		}
		if err := h.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		incr := h.LastSnapshot()
		if incr.SectionsWritten > 2*sequences || incr.SectionsReused < runs-sequences {
			t.Fatalf("incremental snapshot into sources %v wrote %d runs and reused %d of %d (%d sequences): %+v",
				into, incr.SectionsWritten, incr.SectionsReused, runs, sequences, incr)
		}
		if incr.BytesWritten*2 >= full.BytesWritten {
			t.Fatalf("incremental snapshot into sources %v wrote %d bytes, not o(full %d)", into, incr.BytesWritten, full.BytesWritten)
		}
		runs = incr.SectionsWritten + incr.SectionsReused
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

// TestSnapshotSealedMeansSealed drives twenty snapshots with inserts
// spread over every source between them, at two hub sizes: a run that
// was full in one manifest has the same content address in every later
// one, and what a snapshot writes after Δ inserts is bounded by
// Δ + R·sources tuples — the increment plus each source's partial run —
// however large the hub already is.
func TestSnapshotSealedMeansSealed(t *testing.T) {
	const runItems, delta, snapshots = 16, 12, 20
	// No framed tuple of this workload is larger, and no manifest entry of
	// a run.
	const itemBytes, entryBytes = 200, 140
	var steady [2]int64
	for leg, entities := range []int{150, 600} {
		w := datagen.MustMultiGenerate(datagen.MultiConfig{
			Sources: 3, Entities: entities, PresenceFrac: 0.8, HomonymRate: 0.1,
			MissingPhone: 0.1, DirtyPhone: 0.1, Seed: 73,
		})
		dir := t.TempDir()
		h, _ := openMultiOpts(t, dir, w, Options{})
		sealAt(h, runItems)
		// The last delta·snapshots/K tuples of each source, dealt round robin,
		// are the increments; everything before them is the hub's size.
		var head, tail []Insert
		per := delta * snapshots / len(w.Names)
		for i := 0; i < per; i++ {
			for k, rel := range w.Relations {
				tail = append(tail, Insert{Source: w.Names[k], Tuple: rel.Tuple(rel.Len() - per + i).Clone()})
			}
		}
		for k, rel := range w.Relations {
			for _, tup := range rel.Tuples()[:rel.Len()-per] {
				head = append(head, Insert{Source: w.Names[k], Tuple: tup.Clone()})
			}
		}
		for _, res := range h.IngestBatch(head) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		if err := h.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		sequences := len(h.sources)
		sealed := map[runID]string{}
		for i := 0; i < snapshots; i++ {
			for _, it := range tail[i*delta : (i+1)*delta] {
				if _, err := h.Insert(it.Source, it.Tuple); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			man, err := readManifest(wal.OS, dir)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			man.eachRun(func(id runID, r snapRun) {
				total++
				if was, ok := sealed[id]; ok && was != r.Hash {
					t.Fatalf("snapshot %d: sealed %v changed from %s to %s", i, id, was, r.Hash)
				}
				if r.Items == runItems {
					sealed[id] = r.Hash
				}
			})
			st := h.LastSnapshot()
			if limit := int64(itemBytes*(delta+runItems*sequences) + entryBytes*total + 1024); st.BytesWritten > limit {
				t.Fatalf("snapshot %d of a %d-tuple hub wrote %d bytes after %d inserts, limit %d: %+v", i, len(head)+len(tail), st.BytesWritten, delta, limit, st)
			}
			if st.SectionsReused < total-3*sequences {
				t.Fatalf("snapshot %d reused %d of %d runs over %d sequences: %+v", i, st.SectionsReused, total, sequences, st)
			}
			steady[leg] = st.BytesWritten - int64(entryBytes*total)
		}
		if len(sealed) < 4*sequences {
			t.Fatalf("only %d runs ever sealed over %d sequences; grow the workload", len(sealed), sequences)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("run bytes written by the last snapshot: %d at the small hub, %d at the large", steady[0], steady[1])
	if steady[1] > 2*steady[0]+1024 {
		t.Fatalf("run bytes written per snapshot grew with the hub: %d at the small hub, %d at the large", steady[0], steady[1])
	}
}

// TestSnapshotV3TamperDetection corrupts the on-disk form: a flipped byte
// in a run file (content hash, even though the file's own frames may
// still parse) and in the manifest (its own frame CRC), and manifests
// whose every frame, hash and count is self-consistent but whose run
// directory is not the cut's — a run removed, two sealed runs swapped, a
// short run that is not its source's last, a run of another source in
// place of one — or whose run is not what this format writes: a file of
// another size than its entry, a chunk spelled otherwise (a space,
// reordered keys, a repeated key, an empty name). All of them must fail
// the open, naming the run. A directory of a retired format is refused by
// name, never misread.
func TestSnapshotV3TamperDetection(t *testing.T) {
	dir := t.TempDir()
	snapshottedDir(t, dir, datagen.MultiConfig{
		Sources: 3, Entities: 24, PresenceFrac: 0.7, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 59,
	}, 0, 4)
	secs, err := filepath.Glob(filepath.Join(dir, snapSecDir, "*"+snapSecSuffix))
	if err != nil || len(secs) == 0 {
		t.Fatalf("runs: %v %v", secs, err)
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
	man, err := readManifest(wal.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	src := man.Sources[0]
	// respelled is a manifest edit: chunk 1 of the source's first run
	// written as edit leaves it, old replaced by new once.
	respelled := func(old, new string) func(*snapManifest) {
		return func(m *snapManifest) {
			respellRun(t, dir, &m.Sources[0].Runs[0], func(p string) string { return strings.Replace(p, old, new, 1) })
		}
	}
	unspelled := func(id runID) string {
		return fmt.Sprintf("hub: snapshot %v: chunk 1: wal: not spelled as this format writes a run", id)
	}
	name := `"source":` + string(value.AppendJSONString(nil, src.Name))
	for name, c := range map[string]struct {
		edit func(*snapManifest)
		want string
	}{
		"a run removed": {func(m *snapManifest) { m.Sources[0].Runs = m.Sources[0].Runs[1:] }, "does not match its manifest entry"},
		"the last run removed": {func(m *snapManifest) {
			m.Sources[0].Runs = m.Sources[0].Runs[:len(m.Sources[0].Runs)-1]
		}, "the snapshot cut it at"},
		"two runs swapped": {func(m *snapManifest) {
			r := m.Sources[1].Runs
			r[0], r[1] = r[1], r[0]
		}, "does not match its manifest entry"},
		"a short run that is not the last": {func(m *snapManifest) {
			rewriteRun(t, dir, m.Sources[0].id(), &m.Sources[0].Runs[0], func(d *decRun) { d.tuples = d.tuples[:len(d.tuples)-1] })
		}, "every run but a sequence's last holds 4"},
		"another source's run": {func(m *snapManifest) { m.Sources[0].Runs[0] = m.Sources[1].Runs[0] }, "does not match its manifest entry"},
		// Runs this format did not write, every frame CRC intact.
		"a run file of another size than its entry": {func(m *snapManifest) { m.Sources[0].Runs[0].Bytes++ }, fmt.Sprintf("hub: snapshot %v: the run file holds", src.id())},
		"a chunk spelled with a space":              {respelled(`"source":`, `"source": `), unspelled(src.id())},
		"a chunk with its keys reordered":           {respelled(`]]}`, `]],"more":true}`), unspelled(src.id())},
		"a chunk with a key repeated":               {respelled(name, name+","+name), unspelled(src.id())},
		"a source run with an empty name":           {respelled(name, `"source":""`), unspelled(src.id())},
	} {
		committed, err := os.ReadFile(filepath.Join(dir, snapshotManifest))
		if err != nil {
			t.Fatal(err)
		}
		editManifest(t, dir, c.edit)
		if _, _, err := openOn(dir, Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("manifest with %s: want a refusal saying %q, got %v", name, c.want, err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapshotManifest), committed, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Control: with every file restored the directory opens again (and
	// sweeps the run the short-run case left behind).
	h, info, err := openOn(dir, Options{})
	if err != nil || !info.FromSnapshot {
		t.Fatalf("restored directory: %v %+v", err, info)
	}
	h.Close()

	// Directories written by earlier builds, checked in as they wrote
	// them: format 2 (whole-sequence sections); the build before the one
	// tuple codec — a format-3 snapshot with a log tail, and a log alone
	// whose records spell a tuple value by value; format 4, whose
	// snapshot also stored each pair's matching table, with a log tail;
	// and the build before the run record — a format-5 snapshot with a log
	// tail of insert records, and a log alone that registers its sources
	// by add_source. Each is refused by both numbers.
	for fixture, want := range map[string]string{
		"snapshot-format2": "snapshot manifest: format 2, this build reads 6",
		"snapshot-format3": "snapshot manifest: format 3, this build reads 6",
		"snapshot-format4": "snapshot manifest: format 4, this build reads 6",
		"snapshot-format5": "snapshot manifest: format 5, this build reads 6",
		"wal-format1":      "record 1: wal: add_source record of format 1, this build reads 3",
		"wal-format2":      "record 1: wal: add_source record of format 2, this build reads 3",
	} {
		old := t.TempDir()
		if err := os.CopyFS(old, os.DirFS(filepath.Join("testdata", fixture))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := openOn(old, Options{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: want a refusal saying %q, got %v", fixture, want, err)
		}
	}
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
		h2, err := loadSnapshotSections(wal.OS, dir, man, nil, &RecoveryInfo{})
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
