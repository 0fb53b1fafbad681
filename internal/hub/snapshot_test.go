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
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/obs"
	"entityid/internal/store"
	"entityid/internal/value"
	"entityid/internal/wal"
)

// loadSnapshotSections rebuilds a hub from a manifest's segment files alone,
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
// snapshots it with segments sealed at segItems (0: the constant) and
// closes it.
func snapshottedDir(t testing.TB, dir string, cfg datagen.MultiConfig, chunkBytes, segItems int) {
	t.Helper()
	w := datagen.MustMultiGenerate(cfg)
	h, _ := openMultiOpts(t, dir, w, Options{chunkBytes: chunkBytes})
	sealAt(h, segItems)
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

// sealAt makes h seal its segments at n items instead of at
// snapSegItems (0 leaves the constant), so a test-sized hub has sealed
// segments; the loader takes R from the manifest.
func sealAt(h *Hub, n int) {
	if n > 0 {
		h.snap.segItems = n
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

// manifestSources is what dir's segments are read against.
func manifestSources(t testing.TB, man *snapManifest) []segSource {
	t.Helper()
	srcs := make([]segSource, len(man.Sources))
	for i, s := range man.Sources {
		sch, err := wal.DecodeSchema(s.Schema)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = segSource{s.Name, sch}
	}
	return srcs
}

// rewriteSegment re-encodes segment j, whose entry is entry, as edit
// leaves its decoded content and re-addresses it — new file, new content
// hash, new entry — so every frame CRC, segment hash and count stays
// self-consistent.
func rewriteSegment(t testing.TB, dir string, j int, entry *snapSegment, edit func(*decSegment)) {
	t.Helper()
	man, err := readManifest(wal.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	bases, err := man.checkSegments()
	if err != nil {
		t.Fatal(err)
	}
	d, err := readSegmentFile(wal.OS, dir, j, bases[j], nil, *entry, manifestSources(t, man))
	if err != nil {
		t.Fatal(err)
	}
	edit(d)
	if *entry, err = newDirSink(wal.OS, dir, nil, man.SegItems).write(d.base, man.Sources, d.rows, 0); err != nil {
		t.Fatal(err)
	}
}

// respell re-frames seg, a segment file's bytes, with chunk 1's payload
// as edit leaves it, under fresh CRCs.
func respell(t testing.TB, seg []byte, edit func(string) string) []byte {
	t.Helper()
	var out []byte
	frames := wal.NewFrameCutter(seg)
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

// respellSegment writes the segment entry names again, with chunk 1
// respelled, as a file of its own content address, and points entry at
// it: every frame CRC, the segment hash and the byte count agree.
func respellSegment(t testing.TB, dir string, entry *snapSegment, edit func(string) string) {
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
// identity: a hub recovered from a snapshot written whole re-encodes every
// segment to exactly the bytes it was loaded from — same segment and
// chunk boundaries, same content hashes — and, each pair rebuilt over the
// relations the segments hold, commits a byte-identical manifest.
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
	// every segment is re-encoded from the recovered state.
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
		t.Fatalf("snapshot→reopen→snapshot changed the manifest (segment hashes differ):\n%s\n%s", man1, man2)
	}
}

// TestSnapshotMultiChunkBeyondFrameCap lowers the WAL frame cap so the
// hub's encoded state no longer fits one frame (the 256MB ceiling in
// miniature): seed relations too large for one record go in as
// source_begin/source_chunk groups, the snapshot persists a multi-chunk
// segment with every frame under the cap, and recovery comes up from
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
		chunks, total := 0, int64(0)
		for _, g := range man.Segments {
			chunks += g.Chunks
			total += g.Bytes
		}
		if chunks < 8 || total <= int64(wal.FrameCap()) {
			t.Fatalf("expected a genuinely multi-chunk snapshot past the %d-byte frame cap, got %d chunks, %d bytes; grow the workload",
				wal.FrameCap(), chunks, total)
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
// over all of them, every sealed segment carries forward by reference,
// one segment is written and the bytes written are o(full state).
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
		t.Fatalf("first snapshot reused segments: %+v", full)
	}

	// An unchanged hub re-snapshots for (almost) free: every segment
	// carries forward, only the manifest is rewritten.
	if err := h.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	idle := h.LastSnapshot()
	if idle.SectionsWritten != 0 || idle.SectionsReused != full.SectionsWritten {
		t.Fatalf("idle snapshot rewrote segments: %+v (full %+v)", idle, full)
	}

	// Change ~1% of the tuples, first in one source, then in every source:
	// one segment — the last one, if unsealed, merged with what the
	// inserts add — is written, everything sealed is carried.
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
		if incr.SectionsWritten != 1 || incr.SectionsReused < runs-1 {
			t.Fatalf("incremental snapshot into sources %v wrote %d segments and reused %d of %d: %+v",
				into, incr.SectionsWritten, incr.SectionsReused, runs, incr)
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
// spread over every source between them, at two hub sizes: a segment that
// was sealed in one manifest has the same content address in every later
// one, and what a snapshot writes after Δ inserts is bounded by Δ + R
// tuples — the increment plus the unsealed last segment — in one segment
// file, however large the hub already is.
func TestSnapshotSealedMeansSealed(t *testing.T) {
	const segItems, delta, snapshots = 16, 12, 20
	// No framed tuple of this workload is larger.
	const itemBytes = 200
	var steady [2]int64
	for leg, entities := range []int{150, 600} {
		w := datagen.MustMultiGenerate(datagen.MultiConfig{
			Sources: 3, Entities: entities, PresenceFrac: 0.8, HomonymRate: 0.1,
			MissingPhone: 0.1, DirtyPhone: 0.1, Seed: 73,
		})
		dir := t.TempDir()
		h, _ := openMultiOpts(t, dir, w, Options{})
		sealAt(h, segItems)
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
		sealed := map[int]string{}
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
			total := len(man.Segments)
			for j, g := range man.Segments {
				if was, ok := sealed[j]; ok && was != g.Hash {
					t.Fatalf("snapshot %d: sealed segment %d changed from %s to %s", i, j, was, g.Hash)
				}
				if g.total() >= segItems {
					sealed[j] = g.Hash
				}
			}
			st := h.LastSnapshot()
			mf, err := os.Stat(filepath.Join(dir, snapshotManifest))
			if err != nil {
				t.Fatal(err)
			}
			segBytes := st.BytesWritten - mf.Size()
			if limit := int64(itemBytes * (delta + segItems)); segBytes > limit {
				t.Fatalf("snapshot %d of a %d-tuple hub wrote %d segment bytes after %d inserts, limit %d: %+v", i, len(head)+len(tail), segBytes, delta, limit, st)
			}
			if st.SectionsWritten != 1 || st.SectionsReused < total-1 {
				t.Fatalf("snapshot %d wrote %d segments and reused %d of %d: %+v", i, st.SectionsWritten, st.SectionsReused, total, st)
			}
			steady[leg] = segBytes
		}
		if len(sealed) < 4 {
			t.Fatalf("only %d segments ever sealed; grow the workload", len(sealed))
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("segment bytes written by the last snapshot: %d at the small hub, %d at the large", steady[0], steady[1])
	if steady[1] > 2*steady[0]+1024 {
		t.Fatalf("segment bytes written per snapshot grew with the hub: %d at the small hub, %d at the large", steady[0], steady[1])
	}
}

// TestSnapshotV3TamperDetection corrupts the on-disk form: a flipped byte
// in a segment file (content hash, even though the file's own frames may
// still parse) and in the manifest (its own frame CRC), and manifests
// whose every frame, hash and count is self-consistent but whose segments
// are not the cut's — a segment removed, two sealed segments swapped, a
// short segment that is not the last, another segment's entry in place of
// one, item counts moved between sources or naming a source the manifest
// lacks — or whose segment is not what this format writes: a file of
// another size than its entry, a chunk spelled otherwise (a space,
// reordered keys, a repeated key, an empty name). All of them must fail
// the open, naming the segment. A directory of a retired format is
// refused by name, never misread.
func TestSnapshotV3TamperDetection(t *testing.T) {
	dir := t.TempDir()
	snapshottedDir(t, dir, datagen.MultiConfig{
		Sources: 3, Entities: 24, PresenceFrac: 0.7, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 59,
	}, 0, 4)
	secs, err := filepath.Glob(filepath.Join(dir, snapSecDir, "*"+snapSecSuffix))
	if err != nil || len(secs) == 0 {
		t.Fatalf("segments: %v %v", secs, err)
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
	// mixed is a segment that holds two sources, from and to.
	mixed, from, to := -1, -1, -1
	for j, g := range man.Segments {
		for i, k := range g.Items {
			if k > 0 && from < 0 {
				from = i
			} else if k > 0 && to < 0 {
				mixed, to = j, i
			}
		}
		if mixed >= 0 {
			break
		}
		from = -1
	}
	if len(man.Segments) < 3 || mixed < 0 {
		t.Fatalf("want three segments or more, one holding two sources: %+v", man.Segments)
	}
	src := man.Sources[0]
	// respelled is a manifest edit: chunk 1 of the first segment written
	// as edit leaves it, old replaced by new once.
	respelled := func(old, new string) func(*snapManifest) {
		return func(m *snapManifest) {
			respellSegment(t, dir, &m.Segments[0], func(p string) string { return strings.Replace(p, old, new, 1) })
		}
	}
	const unspelled = "hub: snapshot segment 0: chunk 1: wal: not spelled as this format writes a run"
	const mismatch = "does not match its manifest entry"
	name := `"source":` + string(value.AppendJSONString(nil, src.Name))
	for name, c := range map[string]struct {
		edit func(*snapManifest)
		want string
	}{
		"a segment removed":        {func(m *snapManifest) { m.Segments = m.Segments[1:] }, "hub: snapshot segment 0 " + mismatch},
		"the last segment removed": {func(m *snapManifest) { m.Segments = m.Segments[:len(m.Segments)-1] }, "the snapshot cut it at"},
		"two segments swapped": {func(m *snapManifest) {
			m.Segments[0], m.Segments[1] = m.Segments[1], m.Segments[0]
		}, mismatch},
		"a short segment that is not the last": {func(m *snapManifest) {
			rewriteSegment(t, dir, 0, &m.Segments[0], func(d *decSegment) { d.rows[0] = d.rows[0].Slice(0, d.rows[0].Len()-1) })
		}, "every one but the last at least 4"},
		"another segment's entry": {func(m *snapManifest) { m.Segments[0] = m.Segments[1] }, mismatch},
		"items moved between sources": {func(m *snapManifest) {
			items := slices.Clone(m.Segments[mixed].Items)
			items[from], items[to] = items[from]-1, items[to]+1
			m.Segments[mixed].Items = items
		}, fmt.Sprintf("hub: snapshot segment %d %s", mixed, mismatch)},
		"items of a source the manifest lacks": {func(m *snapManifest) {
			m.Segments[0].Items = append(slices.Clone(m.Segments[0].Items), 0, 0, 1)
		}, "of the manifest's sources"},
		// Segments this format did not write, every frame CRC intact.
		"a segment file of another size than its entry": {func(m *snapManifest) { m.Segments[0].Bytes++ }, "hub: snapshot segment 0: the segment file holds"},
		"a chunk spelled with a space":                  {respelled(`"source":`, `"source": `), unspelled},
		"a chunk with its keys reordered":               {respelled(`]]}`, `]],"more":true}`), unspelled},
		"a chunk with a key repeated":                   {respelled(name, name+","+name), unspelled},
		"a source run with an empty name":               {respelled(name, `"source":""`), unspelled},
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
	// sweeps the segment the short-segment case left behind).
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
	// the build before the run record — a format-5 snapshot with a log
	// tail of insert records, and a log alone that registers its sources
	// by add_source; and format 6, whose runs hold one source each, with a
	// log tail of run records. Each is refused by both numbers.
	for fixture, want := range map[string]string{
		"snapshot-format2": "snapshot manifest: format 2, this build reads 7",
		"snapshot-format3": "snapshot manifest: format 3, this build reads 7",
		"snapshot-format4": "snapshot manifest: format 4, this build reads 7",
		"snapshot-format5": "snapshot manifest: format 5, this build reads 7",
		"snapshot-format6": "snapshot manifest: format 6, this build reads 7",
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

// commitLogFS records what the snapshot writer does to the file system, in
// order: each segment file committed (renamed into snapsecs/) with the
// bytes written to it, and each manifest committed with its bytes.
type commitLogFS struct {
	wal.FS
	mu      sync.Mutex
	written map[string][]byte // a temporary file's name → what was written to it
	events  []fsEvent
}

// fsEvent is one commit: a segment file's (seg) or the manifest's.
type fsEvent struct {
	seg  string // the segment file's name; "" for the manifest
	data []byte
}

type commitLogFile struct {
	wal.File
	fs *commitLogFS
}

func (f *commitLogFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.fs.written[f.Name()] = append(f.fs.written[f.Name()], p...)
	f.fs.mu.Unlock()
	return f.File.Write(p)
}

func (c *commitLogFS) CreateTemp(dir, pattern string) (wal.File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &commitLogFile{File: f, fs: c}, nil
}

func (c *commitLogFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != snapshotManTmp {
		return f, err
	}
	c.mu.Lock()
	delete(c.written, name)
	c.mu.Unlock()
	return &commitLogFile{File: f, fs: c}, nil
}

func (c *commitLogFS) Rename(oldpath, newpath string) error {
	if err := c.FS.Rename(oldpath, newpath); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case filepath.Base(newpath) == snapshotManifest:
		c.events = append(c.events, fsEvent{data: c.written[oldpath]})
	case strings.HasSuffix(newpath, snapSecSuffix):
		c.events = append(c.events, fsEvent{seg: filepath.Base(newpath), data: c.written[oldpath]})
	}
	delete(c.written, oldpath)
	return nil
}

// TestSnapshotWritesEachTupleOnce drives background snapshots every 64
// inserts over four sources whose inserts interleave, through a file
// system that records every segment and manifest commit: each snapshot
// commits at most one segment file before its manifest; no segment file
// is written twice; and the segment bytes written sum to the segments the
// last manifest holds plus the segments later snapshots merged away, each
// of which held fewer than R tuples — the rewrite a snapshot may add to
// its increment. The directory then reopens to the hub's state.
func TestSnapshotWritesEachTupleOnce(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 4, Entities: 900, PresenceFrac: 0.8, HomonymRate: 0.1,
		MissingPhone: 0.1, DirtyPhone: 0.1, Seed: 83,
	})
	dir := t.TempDir()
	cfs := &commitLogFS{FS: wal.OS, written: map[string][]byte{}}
	h, _ := openMultiOpts(t, dir, w, Options{FS: cfs, SnapshotEvery: 64})
	var items []Insert
	for i := 0; ; i++ {
		more := false
		for k, rel := range w.Relations {
			if i < rel.Len() {
				items, more = append(items, Insert{Source: w.Names[k], Tuple: rel.Tuple(i).Clone()}), true
			}
		}
		if !more {
			break
		}
	}
	for i, it := range items {
		if _, err := h.Insert(it.Source, it.Tuple); err != nil {
			t.Fatal(err)
		}
		if i%64 == 63 {
			h.snap.wg.Wait() // the snapshot these 64 triggered, so none is skipped
		}
	}
	h.snap.wg.Wait()
	if err := h.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	want := stateOf(h)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	cfs.mu.Lock()
	events := cfs.events
	cfs.mu.Unlock()
	// Every segment entry any committed manifest held, by file name.
	entries := map[string]snapSegment{}
	written := map[string]int64{}
	var last *snapManifest
	snapshots, segs := 0, 0
	for _, e := range events {
		if e.seg != "" {
			if segs++; segs > 1 {
				t.Fatalf("snapshot %d committed %d segment files", snapshots+1, segs)
			}
			if _, again := written[e.seg]; again {
				t.Fatalf("segment file %s written twice", e.seg)
			}
			written[e.seg] = int64(len(e.data))
			continue
		}
		rec, err := wal.DecodeRecord(e.data)
		if err != nil {
			t.Fatal(err)
		}
		if last, err = decodeManifest(rec); err != nil {
			t.Fatal(err)
		}
		for _, g := range last.Segments {
			entries[g.Hash+snapSecSuffix] = g
		}
		snapshots, segs = snapshots+1, 0
	}
	if snapshots < 20 || last == nil {
		t.Fatalf("%d snapshots committed over %d inserts; grow the workload", snapshots, len(items))
	}
	var atRest, merged, total int64
	held := map[string]bool{}
	for _, g := range last.Segments {
		held[g.Hash+snapSecSuffix] = true
		atRest += g.Bytes
	}
	for name, n := range written {
		total += n
		if held[name] {
			continue
		}
		g, ok := entries[name]
		if !ok {
			t.Fatalf("segment file %s written but never committed", name)
		}
		if g.total() >= snapSegItems {
			t.Fatalf("sealed segment %s (%v items) was rewritten", name, g.Items)
		}
		merged += n
	}
	if total != atRest+merged {
		t.Fatalf("segment bytes written %d, want %d at rest + %d merged away", total, atRest, merged)
	}
	t.Logf("%d snapshots, %d tuples: %d segment bytes at rest in %d segments, %d merged away", snapshots, len(items), atRest, len(last.Segments), merged)

	h2, info, err := openOn(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if !info.FromSnapshot || info.Replayed != 0 {
		t.Fatalf("reopen did not come up from the snapshot alone: %+v", info)
	}
	mustEqualState(t, "segments written once", stateOf(h2), want)
}

// walBytesSinceSnapshot scrapes hub_wal_bytes_since_snapshot.
func walBytesSinceSnapshot(t *testing.T) int64 {
	t.Helper()
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "hub_wal_bytes_since_snapshot "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return int64(n)
		}
	}
	t.Fatal("hub_wal_bytes_since_snapshot not exposed")
	return 0
}

// TestWalBytesSinceSnapshot reads hub_wal_bytes_since_snapshot around a
// SnapshotNow: it counts the log's bytes past the last snapshot's cut, so
// it falls to zero at the snapshot and then grows by exactly the bytes of
// the records appended after it; a reopen starts it at the log tail past
// the snapshot.
func TestWalBytesSinceSnapshot(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 2, Entities: 20, PresenceFrac: 0.8, Seed: 89,
	})
	dir := t.TempDir()
	h, _ := openMultiOpts(t, dir, w, Options{})
	items := MultiInserts(w)
	ingest := func(items []Insert) {
		for _, res := range h.IngestBatch(items) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}
	ingest(items[:len(items)/2])
	before := walBytesSinceSnapshot(t)
	if before <= 0 || before != h.per.log.Past() {
		t.Fatalf("before the snapshot the gauge reads %d, want the whole log's %d bytes", before, h.per.log.Past())
	}
	if err := h.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if got := walBytesSinceSnapshot(t); got != 0 {
		t.Fatalf("after the snapshot the gauge reads %d, want 0", got)
	}
	at := h.per.log.Past()
	ingest(items[len(items)/2:])
	tail := h.per.log.Past() - at
	if got := walBytesSinceSnapshot(t); tail <= 0 || got != tail {
		t.Fatalf("after more inserts the gauge reads %d, want the %d bytes appended since", got, tail)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, _, err := openOn(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if got := walBytesSinceSnapshot(t); got != tail {
		t.Fatalf("after a reopen the gauge reads %d, want the log tail's %d bytes", got, tail)
	}
}
