package hub

// FuzzSnapshotDecode throws arbitrary bytes at what Open reads: the
// manifest file and a segment file. Each input is tried as a manifest
// frame and as segment bytes twice over — verbatim, and with its lines
// re-framed as chunk payloads under fresh CRCs, so mutations reach the
// chunk decoder instead of dying at the frame check. Bytes that decode as
// a segment get a manifest entry built around them (the content hash the
// loader verifies is computed here, independently) and are spliced into
// a committed snapshot directory at the position they declare, then
// loaded through loadSnapshotSections: hash check, chunk decoding, source
// order, assembly. The properties: the loader never
// panics and never hangs — every input either yields a hub that passed
// full verification (matching tables rebuilt and compared, cluster
// partition refolded), snapshots again cleanly and passes
// Hub.CheckInvariants, or an error.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/wal"
)

func FuzzSnapshotDecode(f *testing.F) {
	dir := f.TempDir()
	snapshottedDir(f, dir, datagen.MultiConfig{
		Sources: 2, Entities: 12, PresenceFrac: 0.8, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 5,
	}, 1<<8, 4) // several segments, several chunks per segment
	base, err := readManifest(wal.OS, dir)
	if err != nil {
		f.Fatal(err)
	}
	srcs := manifestSources(f, base)
	bases, err := base.checkSegments()
	if err != nil {
		f.Fatal(err)
	}
	committed := map[string]bool{}
	var first []byte
	for _, g := range base.Segments {
		committed[g.Hash] = true
		data, err := os.ReadFile(secPath(dir, g.Hash))
		if err != nil {
			f.Fatal(err)
		}
		if first == nil {
			first = data
		}
		// Every committed segment, framed and as bare chunk payloads.
		f.Add(data)
		f.Add(chunkPayloads(data))
	}
	if frames := bytes.SplitAfter(first, []byte("\n")); len(frames) > 3 {
		// Truncated mid-segment: cut inside the second frame.
		f.Add(first[:len(frames[0])+len(frames[1])/2])
		// Sequence jump between chunks: drop a middle frame.
		f.Add(append(append([]byte(nil), frames[0]...), bytes.Join(frames[2:], nil)...))
	}
	// Segments whose first chunk is spelled otherwise than this format
	// writes it, every frame CRC intact: a space, reordered keys, a
	// repeated key, an empty name, a mark spelled false.
	name := `"source":"` + base.Sources[0].Name + `"`
	for _, r := range [][2]string{
		{name, `"source": "` + base.Sources[0].Name + `"`},
		{`]]}`, `]],"more":true}`},
		{name, name + `,` + name},
		{name, `"source":""`},
		{`,"tuples":`, `,"more":false,"tuples":`},
	} {
		f.Add(respell(f, first, func(p string) string { return strings.Replace(p, r[0], r[1], 1) }))
	}
	// The committed manifest, one with a sealed segment gone, one whose
	// segment entry gives another size than its file's, one sealing at an
	// R its segments do not reach, one with no sources or links, ones of
	// the retired formats, and garbage.
	if frame, err := os.ReadFile(filepath.Join(dir, snapshotManifest)); err == nil {
		f.Add(frame)
	}
	for _, doctor := range []func(*snapManifest){
		func(m *snapManifest) { m.Segments = m.Segments[1:] },
		func(m *snapManifest) { m.Segments[0].Bytes-- },
		func(m *snapManifest) { m.SegItems = 1000 },
		func(m *snapManifest) { m.Sources, m.Pairs = nil, nil },
		func(m *snapManifest) { m.Format = 2 },
		func(m *snapManifest) { m.Format = 3 },
		func(m *snapManifest) { m.Format = 4 },
		func(m *snapManifest) { m.Format = 5 },
		func(m *snapManifest) { m.Format = 6 },
	} {
		man := *base
		man.Sources = append([]snapSource(nil), base.Sources...)
		man.Segments = append([]snapSegment(nil), base.Segments...)
		doctor(&man)
		if frame, err := encodeManifest(&man); err == nil {
			f.Add(frame)
		}
	}
	f.Add([]byte("w1 1 00000000 0 \n"))
	f.Add([]byte(nil))
	f.Add([]byte(strings.Repeat("{", 100)))
	// A source run of the retired format (3): a {"k","v"} object per
	// value. Like the corpus files under testdata/fuzz, refused.
	f.Add([]byte(`{"v2":"source","run":0,"chunk":1,"last":true,"name":"src0","tuples":[[{"k":"string","v":"a"},{"k":"string","v":"b"},{"k":"null"},{"k":"string","v":"c"}]]}`))
	// The manifests and run files of the format-4 directory — a manifest
	// that names pair runs, a matching-table run — of the format-5 one,
	// whose chunks spell a run before the run record, and of the format-6
	// one, whose run files hold one source each: refused.
	for fixture, runs := range map[string]int{"snapshot-format4": 3, "snapshot-format5": 2, "snapshot-format6": 2} {
		old := filepath.Join("testdata", fixture)
		oldRuns, err := filepath.Glob(filepath.Join(old, snapSecDir, "*"+snapSecSuffix))
		if err != nil || len(oldRuns) != runs {
			f.Fatalf("%s runs: %v %v", fixture, oldRuns, err)
		}
		for _, path := range append(oldRuns, filepath.Join(old, snapshotManifest)) {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}

	// load runs the manifest through the loader; a hub that comes back
	// passed full verification and must snapshot again.
	load := func(t *testing.T, man *snapManifest) {
		h, err := loadSnapshotSections(wal.OS, dir, man, nil, &RecoveryInfo{})
		if err != nil {
			return
		}
		if h == nil {
			t.Fatal("nil hub with nil error")
		}
		h.mu.RLock()
		h.commitMu.Lock()
		cut := h.cutLocked(man.Watermark)
		h.commitMu.Unlock()
		h.mu.RUnlock()
		if _, err := h.writeSnapshotSections(cut, newDirSink(wal.OS, t.TempDir(), nil, man.SegItems), 0); err != nil {
			t.Fatalf("accepted snapshot does not re-save: %v", err)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("accepted snapshot loads a hub that breaks its invariants: %v", err)
		}
	}
	segment := func(t *testing.T, data []byte) {
		d, err := decodeSegment(data, srcs, nil)
		if err != nil {
			return
		}
		sum := sha256.Sum256(data)
		if d.meta.Hash != hex.EncodeToString(sum[:]) || d.meta.Bytes != int64(len(data)) {
			t.Fatalf("accepted segment's content address covers %d bytes (%s), file has %d (%x)",
				d.meta.Bytes, d.meta.Hash, len(data), sum)
		}
		if !committed[d.meta.Hash] {
			path := secPath(dir, d.meta.Hash)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			defer os.Remove(path)
		}
		// Splice the segment in where it says it goes: in place of the
		// committed segment at its base, or at the end.
		man := *base
		man.Segments = append([]snapSegment(nil), base.Segments...)
		if j := slices.Index(bases, d.base); j >= 0 {
			man.Segments[j] = d.meta
		} else {
			man.Segments = append(man.Segments, d.meta)
		}
		load(t, &man)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, err := wal.DecodeRecord(data); err == nil {
			if man, err := decodeManifest(rec); err == nil {
				load(t, man)
			}
		}
		segment(t, data)
		var framed []byte
		for i, payload := range bytes.Split(data, []byte("\n")) {
			frame, err := wal.EncodeRecord(uint64(i+1), payload)
			if err != nil {
				return
			}
			framed = append(framed, frame...)
		}
		segment(t, framed)
	})
}

// chunkPayloads strips a segment's frames down to their payloads, one per
// line — the form the fuzz target re-frames.
func chunkPayloads(seg []byte) []byte {
	var out [][]byte
	sc := wal.NewFrameCutter(seg)
	for {
		rec, _, err := sc.Next()
		if err != nil {
			return bytes.Join(out, []byte("\n"))
		}
		out = append(out, rec.Payload)
	}
}

// FuzzCursor throws arbitrary strings at the cluster cursor parser
// (parseCursor, startFrom) through ClustersWalk, over a hub one of whose
// source names holds a slash: a cursor either is refused or resumes at a
// position inside the topology — never negative, never wrapped past the
// maximum int — and every cursor a walk hands out renders back to itself
// and resumes exactly the rest of that walk.
func FuzzCursor(f *testing.F) {
	h := namedHub(f, "a", "x/y")
	for i := 0; i < 6; i++ {
		mustInsert(f, h, []string{"a", "x/y"}[i%2], fmt.Sprintf("k%d", i), fmt.Sprintf("n%d", i/2+i%2*2))
	}
	tv := h.topo.Load()
	var ids, resumes []string
	if err := h.ClustersWalk("", 0, func(c Cluster, resume string) bool {
		ids, resumes = append(ids, c.ID), append(resumes, resume)
		return true
	}); err != nil {
		f.Fatal(err)
	}
	for i, resume := range resumes {
		n, err := parseCursor(tv, resume)
		var rest []string
		werr := h.ClustersWalk(resume, 0, func(c Cluster, _ string) bool { rest = append(rest, c.ID); return true })
		if err != nil || werr != nil || new(idBlock).id(tv, n) != resume || fmt.Sprint(rest) != fmt.Sprint(ids[i+1:]) {
			f.Fatalf("cursor %q handed out after %s: parses to %v (%v), resumes %v (%v), want %v", resume, ids[i], n, err, rest, werr, ids[i+1:])
		}
		f.Add(resume)
	}
	for _, seed := range []string{"", "nope", "a/b/", "a/x", "a/-1", "ghost/0", "a/9223372036854775807", "a/9223372036854775806", "x/y/", "x/1", "/0", "a/+1", "a/ 1", "a/01"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, cursor string) {
		start, err := startFrom(tv, cursor)
		werr := h.ClustersWalk(cursor, 0, func(Cluster, string) bool { return true })
		if (err == nil) != (werr == nil) {
			t.Fatalf("cursor %q: startFrom %v, ClustersWalk %v", cursor, err, werr)
		}
		if err == nil && (start.Src < 0 || start.Src >= len(tv.sources) || start.Idx < 0) {
			t.Fatalf("cursor %q starts the walk at %+v", cursor, start)
		}
	})
}
