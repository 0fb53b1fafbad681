package hub

// Crash recovery as pinned schedules of the simulator (sim_test.go): a
// kill is quiesce + Open, and after it — as after every step — the hub
// must serve exactly what the sequential model holds, so "recovered ≡
// crashed", "rejected inserts stay rejected" and "the interrupted
// workload finishes to the uninterrupted result" are the runner's
// checks, not these tests'. What stays here is what a schedule cannot
// say: a RecoveryInfo field, the files a snapshot leaves, directories
// doctored by hand.

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"entityid/internal/datagen"
	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/store"
	"entityid/internal/store/mem"
	"entityid/internal/value"
	"entityid/internal/wal"
	"entityid/internal/wal/errfs"
)

// TestCrashRecoveryRandomKillPoints kills a sequentially fed hub at
// commit points across the workload, background snapshots and log
// truncation firing along the way, and finishes the workload after.
func TestCrashRecoveryRandomKillPoints(t *testing.T) {
	ws := multiWork(3, 36, 0.65, 7, 77)
	w := ws.build()
	n := len(w.items)
	for _, k := range []int{0, 1, 26, 31, 36, 49, 72, 73} {
		t.Run(fmt.Sprintf("kill=%d", k), func(t *testing.T) {
			k = min(k, n)
			ops := append(append(setup(w), seq(0, k)...), reopen(reopenKill))
			runSchedule(t, schedule{work: ws, opts: simOpts{snapEvery: 7}, ops: append(ops, seq(k, n)...)})
		})
	}
}

// TestCrashRecoveryMidBatchTornWrite tears a WAL write in the middle of
// a batch — half a frame lands, the rollback fails too, every later
// append is refused — kills the hub, and offers the whole batch again:
// recovery drops the torn tail and reports it, casualties commit now,
// what was committed (and the planted duplicates) is refused again, and
// the partition ends at the planted truth. The batch commits in ten
// runs, one write each; the trials tear the third, the sixth and the
// eighth.
func TestCrashRecoveryMidBatchTornWrite(t *testing.T) {
	ws := multiWork(4, 40, 0.6, 11, 5)
	w := ws.build()
	all := append(span(0, len(w.items)), 3, 9, 27, 40, 41) // the last five: duplicate-key items
	for trial, after := range []int{2, 5, 7} {
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			ops := append(setup(w),
				fault(errfs.OpWrite, "wal-", after, 0, syscall.EIO, 12, 0),
				fault(errfs.OpTruncate, "wal-", 0, 0, syscall.EIO, 0, 0),
				batch(all...), reopen(reopenKill), batch(all...))
			for _, r := range runSchedule(t, schedule{work: ws, ops: ops}) {
				if r.infos[1].TailDamage == "" {
					t.Fatal("torn write left no reported tail damage")
				}
				if err := r.servesTruth(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRecoveryCorruptWALTail cuts the log short and flips bits in it at
// several offsets: recovery stops at the last good record, which the
// runner holds to a prefix of the committed mutations.
func TestRecoveryCorruptWALTail(t *testing.T) {
	ws := multiWork(3, 30, 0.6, 19, 9)
	w := ws.build()
	for trial, at := range []int{4321, 9000, 15000, 20011} {
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			ops := append(append(setup(w), seq(0, len(w.items))...), damage(reopenTruncate+trial%2, at))
			runSchedule(t, schedule{work: ws, ops: ops})
		})
	}
}

// TestBackgroundSnapshotTruncatesLog: after enough commits a background
// snapshot lands and a reopen starts from it, replaying only the tail;
// SnapshotNow then truncates the log to its fresh active segment.
func TestBackgroundSnapshotTruncatesLog(t *testing.T) {
	ws := multiWork(3, 30, 0.7, 3, 31)
	w := ws.build()
	ops := append(append(setup(w), seq(0, len(w.items))...), reopen(reopenKill), snap(), reopen(reopenClose))
	for _, r := range runSchedule(t, schedule{work: ws, opts: simOpts{snapEvery: 10}, ops: ops}) {
		if info := r.infos[1]; !info.FromSnapshot || info.Replayed >= len(w.items)+len(setup(w)) {
			t.Fatalf("reopen after background snapshots: %+v", info)
		}
		if info := r.infos[2]; !info.FromSnapshot || info.Replayed != 0 {
			t.Fatalf("reopen after SnapshotNow: %+v", info)
		}
		// SnapshotNow was quiescent, so its watermark is the rotation
		// boundary: every earlier segment is gone.
		segs, err := filepath.Glob(filepath.Join(r.dir, "wal-*.log"))
		if err != nil || len(segs) != 1 || filepath.Base(segs[0]) == fmt.Sprintf("wal-%020d.log", 1) {
			t.Fatalf("segments after SnapshotNow: %v %v (want only the fresh active one)", segs, err)
		}
	}
}

// TestSnapshotRoundTripAndTamperDetection holds the semantic
// re-verification of a snapshot load that no frame CRC, run hash or
// manifest count stands in for: a cluster store that lost a cluster the
// fold of the rebuilt tables published is caught when it is read back and
// compared with that fold — the check that stood against the stored
// partition section while snapshots had one.
func TestSnapshotRoundTripAndTamperDetection(t *testing.T) {
	dir := t.TempDir()
	snapshottedDir(t, dir, datagen.MultiConfig{
		Sources: 3, Entities: 24, PresenceFrac: 0.7, HomonymRate: 0.2,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 13,
	}, 0, 4)
	man, err := readManifest(wal.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	lossy := lossyBackend{mem.New()}
	if _, err := loadSnapshotSections(wal.OS, dir, man, lossy, &RecoveryInfo{}); err == nil || !strings.Contains(err.Error(), "refolded pairwise matching tables") {
		t.Fatalf("cluster store that lost a cluster: want a partition refold rejection, got %v", err)
	}
}

// lossyBackend is a backend whose cluster store forgets its first
// cluster when asked for the partition.
type lossyBackend struct{ store.Backend }

func (b lossyBackend) Clusters() store.Clusters { return lossyClusters{b.Backend.Clusters()} }

type lossyClusters struct{ store.Clusters }

func (c lossyClusters) Partition() ([][]store.Node, error) {
	part, err := c.Clusters.Partition()
	return part[min(1, len(part)):], err
}

// TestRecoveryDegenerateWorkloads sweeps the corners datagen must
// generate validly — one linkless source, empty sources — through
// ingest, kill and recovery.
func TestRecoveryDegenerateWorkloads(t *testing.T) {
	for name, ws := range map[string]workSpec{
		"single-source":     multiWork(1, 8, 1, 2, 2),
		"empty-universe":    multiWork(3, 0, 0.5, 2, 2),
		"absent-everywhere": multiWork(2, 6, 0, 2, 2),
	} {
		t.Run(name, func(t *testing.T) {
			w := ws.build()
			ops := append(append(setup(w), seq(0, len(w.items))...), reopen(reopenKill))
			for _, r := range runSchedule(t, schedule{work: ws, opts: simOpts{snapEvery: 3}, ops: ops}) {
				if err := r.servesTruth(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRecoveryFailsClosedOnPartialRestore pins the snapshot↔WAL
// cross-check: a data directory missing pieces (lost log segments, a
// lost snapshot, a lost run) must refuse to open rather than replay
// around the hole or log new commits at covered sequence numbers.
func TestRecoveryFailsClosedOnPartialRestore(t *testing.T) {
	ws := multiWork(3, 20, 0.7, 29, 3)
	w := ws.build()
	ops := append(append(setup(w), seq(0, len(w.items))...), snap())
	r, err := runOn(schedule{work: ws, opts: simOpts{snapEvery: 10}, ops: ops}, "mem", t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tuples := r.h.Stats().Tuples
	if err := r.h.Close(); err != nil {
		t.Fatal(err)
	}
	// restore copies the directory without the files matching drop (of
	// the segment files, only the first).
	restore := func(drop ...string) string {
		to := t.TempDir()
		if err := os.CopyFS(to, os.DirFS(r.dir)); err != nil {
			t.Fatal(err)
		}
		for _, pat := range drop {
			paths, _ := filepath.Glob(filepath.Join(to, pat))
			if strings.HasPrefix(pat, snapSecDir) {
				paths = paths[:1]
			}
			for _, p := range paths {
				if err := os.Remove(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		return to
	}
	if _, _, err := openOn(restore("wal-*.log"), Options{}); err == nil {
		t.Fatal("opened a directory whose log is behind its snapshot")
	}
	// A stray file under the retired single-frame snapshot's name is not
	// a snapshot: it changes nothing.
	noSnap := restore(snapshotManifest)
	if err := os.WriteFile(filepath.Join(noSnap, "snapshot.ei"), []byte("stray"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openOn(noSnap, Options{}); err == nil || !strings.Contains(err.Error(), "no snapshot covering the truncated prefix") {
		t.Fatalf("truncated log with no snapshot: want the uncovered-prefix rejection, got %v", err)
	}
	if _, _, err := openOn(restore(filepath.Join(snapSecDir, "*"+snapSecSuffix)), Options{}); err == nil {
		t.Fatal("opened a snapshot with a missing segment file")
	}
	// Control: every piece together recovers.
	h, info, err := openOn(restore(), Options{})
	if err != nil || !info.FromSnapshot || h.Stats().Tuples != tuples {
		t.Fatalf("full restore: %v %+v", err, info)
	}
	h.Close()
}

// TestCrashMidSnapshotBetweenSections kills the snapshot writer between
// segment files: the N+1-th rename into snapsecs/ fails and the process
// dies. The manifest was never renamed, so recovery comes up from the
// previous snapshot plus the log, and the orphaned segments are swept.
func TestCrashMidSnapshotBetweenSections(t *testing.T) {
	ws := multiWork(3, 36, 0.65, 67, 19)
	w := ws.build()
	n := len(w.items)
	for _, landed := range []int{0, 1, 2, 4} {
		t.Run(fmt.Sprintf("sections=%d", landed), func(t *testing.T) {
			ops := append(append(setup(w), seq(0, n/2)...), snap())
			ops = append(append(ops, seq(n/2, n)...),
				fault(errfs.OpRename, snapSecDir, landed, 0, syscall.EIO, 0, 0), snap(), reopen(reopenKill))
			// Segments of four: the second snapshot carries the sealed segments
			// of the first and dies between the files of the ones it adds.
			for _, r := range runSchedule(t, schedule{work: ws, opts: simOpts{runItems: 4}, ops: ops}) {
				if r.errs[len(ops)-2] == nil {
					t.Fatal("mid-snapshot kill did not fire")
				}
				if !r.infos[1].FromSnapshot {
					t.Fatal("recovery ignored the committed first snapshot")
				}
				man, err := readManifest(wal.OS, r.dir)
				if err != nil {
					t.Fatal(err)
				}
				referenced := map[string]bool{}
				for _, g := range man.Segments {
					referenced[g.Hash+snapSecSuffix] = true
				}
				secs, _ := filepath.Glob(filepath.Join(r.dir, snapSecDir, "*"))
				for _, s := range secs {
					if !referenced[filepath.Base(s)] {
						t.Fatalf("orphan segment file survived recovery: %s", s)
					}
				}
				if err := r.h.SnapshotNow(); err != nil {
					t.Fatalf("snapshot on the recovered hub: %v", err)
				}
			}
		})
	}
}

// TestPowerLossAtSyncBoundary pins the opt-in group-commit policy:
// under SyncEvery 7 a power loss (everything past the last fsync
// vanishes) leaves the synced prefix — the runner holds recovery to at
// least the fsynced record and to a committed prefix — and a batch's
// flush epoch leaves nothing acknowledged unsynced.
func TestPowerLossAtSyncBoundary(t *testing.T) {
	ws := multiWork(3, 30, 0.7, 71, 23)
	w := ws.build()
	all := span(0, len(w.items))
	ops := append(append(setup(w), seq(0, len(all))...), reopen(reopenPowerLoss), batch(all...))
	for _, r := range runSchedule(t, schedule{work: ws, opts: simOpts{syncEvery: 7}, ops: ops}) {
		// Every op before the reopen logged one record, but a registration,
		// which logs two: its source_begin and the run of its seeds (none).
		if lost := uint64(len(ops)-2+len(w.names)) - r.infos[1].LastSeq; lost == 0 || lost >= 7 {
			t.Fatalf("power loss under SyncEvery 7 lost %d records, want 1..6", lost)
		}
		if s, _ := r.h.per.log.Synced(); s != r.h.per.log.LastSeq() {
			t.Fatalf("IngestBatch left unsynced records: synced %d, last %d", s, r.h.per.log.LastSeq())
		}
		if err := r.servesTruth(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInvalidUTF8IsRefusedBeforeTheLog: the tuple codec is JSON, which
// cannot spell a string that is not UTF-8 — it would log "\xff" and
// "\xfe" both as U+FFFD, two acknowledged keys as one, and the directory
// would never open again (the second insert replays as a key violation).
// Such a tuple is refused, by a sentinel, on every door — Insert, a
// stream, AddSource's seeds — before anything is logged or applied, on a
// memory-only hub exactly as on a durable one; the directory reopens
// with what was accepted.
func TestInvalidUTF8IsRefusedBeforeTheLog(t *testing.T) {
	dir := t.TempDir()
	durable, _, err := openOn(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Hub{New(), durable} {
		addNamed(t, h, "a")
		mustInsert(t, h, "a", "ok", "café")
		before := h.Stats()
		for _, key := range []string{"\xff", "\xfe", "tail\xc3"} {
			bad := relation.Tuple{value.String(key), value.String("n")}
			if _, err := h.Insert("a", bad); !errors.Is(err, ErrInvalidUTF8) || !strings.Contains(err.Error(), `source "a": attribute "id"`) {
				t.Fatalf("Insert %q: %v, want ErrInvalidUTF8 naming the attribute", key, err)
			}
			res := h.IngestBatch([]Insert{{Source: "a", Tuple: bad}, {Source: "a", Tuple: relation.Tuple{value.String("n-" + key[:1]), value.String("n\xff")}}})
			for _, r := range res {
				if !errors.Is(r.Err, ErrInvalidUTF8) {
					t.Fatalf("streamed %q: %v, want ErrInvalidUTF8", key, r.Err)
				}
			}
			seed := relation.New(schema.MustNew("s", []schema.Attribute{{Name: "id", Kind: value.KindString}}))
			seed.MustInsert(value.String("fine"))
			seed.MustInsert(value.String(key))
			if err := h.AddSource("s", seed); !errors.Is(err, ErrInvalidUTF8) || !strings.Contains(err.Error(), "seed tuple 1") {
				t.Fatalf("AddSource seeded with %q: %v, want ErrInvalidUTF8 naming the seed", key, err)
			}
		}
		if after := h.Stats(); after != before {
			t.Fatalf("refused tuples changed the hub: %+v -> %+v", before, after)
		}
		if _, err := h.SourceSchema("s"); err == nil {
			t.Fatal("the refused registration reached the hub")
		}
	}
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	h, info, err := openOn(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer h.Close()
	if info.Replayed != 3 || h.Stats().Tuples != 1 { // the source_begin, its empty seed run and the insert
		t.Fatalf("reopened with %+v, %+v; want the source and the one accepted tuple", info, h.Stats())
	}
}

// countingFS is the real file system counting the bytes read from log
// segments, by any route: opened for reading, opened for append, or read
// whole. opened names the segments opened for reading.
type countingFS struct {
	wal.FS
	read   atomic.Int64
	mu     sync.Mutex
	opened []string
}

func isSegment(name string) bool {
	base := filepath.Base(name)
	return strings.HasPrefix(base, "wal-") && strings.HasSuffix(base, ".log")
}

func (c *countingFS) Open(name string) (wal.File, error) {
	f, err := c.FS.Open(name)
	if err != nil || !isSegment(name) {
		return f, err
	}
	c.mu.Lock()
	c.opened = append(c.opened, filepath.Base(name))
	c.mu.Unlock()
	return countedFile{f, &c.read}, nil
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || !isSegment(name) {
		return f, err
	}
	return countedFile{f, &c.read}, nil
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	b, err := c.FS.ReadFile(name)
	if isSegment(name) {
		c.read.Add(int64(len(b)))
	}
	return b, err
}

type countedFile struct {
	wal.File
	n *atomic.Int64
}

func (f countedFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.n.Add(int64(n))
	return n, err
}

// segmentBytes sums the sizes of dir's log segments.
func segmentBytes(t *testing.T, dir string) (total int64, sizes map[string]int64) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sizes = map[string]int64{}
	for _, e := range ents {
		if isSegment(e.Name()) {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			sizes[e.Name()], total = fi.Size(), total+fi.Size()
		}
	}
	return total, sizes
}

// TestOpenReadsEachLogByteOnce: Open reads every byte of the log exactly
// once — verifying each frame and decoding the tail in the one pass — over
// three segments, the first wholly under a snapshot's watermark (a crash
// between the manifest's commit and the segment's removal leaves it), and
// over a log with no snapshot; and over a log damaged in its middle
// segment it reads up to the damage and stops, the segment after it
// preserved as .dead and not read at all.
func TestOpenReadsEachLogByteOnce(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{Sources: 3, Entities: 60, PresenceFrac: 0.7, Seed: 5})
	items := MultiInserts(w)
	half := len(items) / 2
	logged := func(t *testing.T, snapshot bool) string {
		dir := t.TempDir()
		h, _ := openMultiOpts(t, dir, w, Options{})
		for _, it := range items[:half] {
			if _, err := h.Insert(it.Source, it.Tuple); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		var first []byte
		if snapshot {
			var err error
			if first, err = os.ReadFile(filepath.Join(dir, fmt.Sprintf("wal-%020d.log", 1))); err != nil {
				t.Fatal(err)
			}
			h, _ = openMultiOpts(t, dir, w, Options{})
			if err := h.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
		}
		// Two more segments: the tail so far, and the rest after a rotation.
		for i, items := range [][]Insert{items[half : half+10], items[half+10:]} {
			if i > 0 {
				l, err := wal.Open(dir)
				if err == nil {
					_, err = l.Recover(0, nil)
				}
				if err == nil {
					_, err = l.Rotate()
				}
				if err == nil {
					err = l.Close()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			h, _ = openMultiOpts(t, dir, w, Options{})
			for _, it := range items {
				if _, err := h.Insert(it.Source, it.Tuple); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if first != nil {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%020d.log", 1)), first, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	open := func(t *testing.T, dir string) (*RecoveryInfo, *countingFS) {
		fsys := &countingFS{FS: wal.OS}
		h, info, err := Open(dir, Options{FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		return info, fsys
	}
	for _, c := range []struct {
		name     string
		snapshot bool
		segments int
	}{{"snapshot", true, 3}, {"log-only", false, 2}} {
		t.Run(c.name, func(t *testing.T) {
			dir := logged(t, c.snapshot)
			total, sizes := segmentBytes(t, dir)
			if len(sizes) != c.segments {
				t.Fatalf("the log has %d segments, want %d", len(sizes), c.segments)
			}
			info, fsys := open(t, dir)
			if info.FromSnapshot != c.snapshot || info.TailDamage != "" || info.Replayed == 0 {
				t.Fatalf("opened %+v", info)
			}
			if read := fsys.read.Load(); read != total || info.LogBytes != total {
				t.Fatalf("Open read %d bytes of a %d-byte log and reports %d", read, total, info.LogBytes)
			}
			t.Logf("Open (%s): %.2f log bytes read per log byte, %d bytes in %d segments",
				c.name, float64(fsys.read.Load())/float64(total), total, len(sizes))
		})
	}
	t.Run("damaged", func(t *testing.T) {
		dir := logged(t, true)
		_, sizes := segmentBytes(t, dir)
		names := slices.Sorted(maps.Keys(sizes))
		// Flip a payload byte of the middle segment's fifth record.
		mid := filepath.Join(dir, names[1])
		data, err := os.ReadFile(mid)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		damageAt := int64(len(bytes.Join(lines[:4], nil)))
		lines[4][len(lines[4])-3] ^= 0x01
		if err := os.WriteFile(mid, bytes.Join(lines, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		rest := names[len(names)-1]
		info, fsys := open(t, dir)
		if !strings.Contains(info.TailDamage, "checksum mismatch") {
			t.Fatalf("opened %+v, want checksum damage", info)
		}
		if _, err := os.Stat(filepath.Join(dir, rest+".dead")); err != nil {
			t.Fatalf("the segment past the damage is not preserved: %v", err)
		}
		read, least := fsys.read.Load(), sizes[names[0]]+damageAt
		if read < least || read > sizes[names[0]]+sizes[names[1]] || slices.Contains(fsys.opened, rest) {
			t.Fatalf("Open read %d bytes (segments %v opened), want %d to %d and none of %s",
				read, fsys.opened, least, sizes[names[0]]+sizes[names[1]], rest)
		}
		if info.LogBytes != least {
			t.Fatalf("Open reports %d log bytes verified, want %d", info.LogBytes, least)
		}
	})
}

// TestSimSegmentKills pins two kills of the snapshot writer to the
// simulator's model, on R large enough that nothing seals, so every
// snapshot after the first rewrites the last segment merged with what
// came since: one between the segment file's rename and the manifest's
// (the manifest rename fails and the process dies), one while the merged
// segment is being written (a write tears and the process dies). Either
// way recovery comes up from the first snapshot plus the log, no orphan
// survives it, and the hub takes the rest of the workload and snapshots
// again.
func TestSimSegmentKills(t *testing.T) {
	ws := multiWork(3, 30, 0.7, 97, 29)
	w := ws.build()
	n := len(w.items)
	for name, kill := range map[string]op{
		"between renames": fault(errfs.OpRename, snapshotManifest, 0, 0, syscall.EIO, 0, 0),
		"merge rewrite":   fault(errfs.OpWrite, snapSecDir, 0, 1, syscall.ENOSPC, 7, 0),
	} {
		t.Run(name, func(t *testing.T) {
			ops := append(append(setup(w), seq(0, n/3)...), snap())
			ops = append(append(ops, seq(n/3, 2*n/3)...), kill, snap(), reopen(reopenKill))
			ops = append(append(ops, batch(span(2*n/3, n)...)), snap(), reopen(reopenClose))
			for _, r := range runSchedule(t, schedule{work: ws, opts: simOpts{syncEvery: 3}, ops: ops}) {
				if at := len(ops) - 5; r.errs[at] == nil {
					t.Fatalf("%s: the killed snapshot committed", r.backend)
				}
				if info := r.infos[1]; !info.FromSnapshot || info.Replayed == 0 {
					t.Fatalf("%s: recovery did not come up from the first snapshot and the log: %+v", r.backend, info)
				}
				if info := r.infos[2]; !info.FromSnapshot || info.Replayed != 0 {
					t.Fatalf("%s: the last snapshot did not cover the hub: %+v", r.backend, info)
				}
				man, err := readManifest(wal.OS, r.dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(man.Segments) != 1 {
					t.Fatalf("%s: %d segments where nothing seals", r.backend, len(man.Segments))
				}
				secs, _ := filepath.Glob(filepath.Join(r.dir, snapSecDir, "*"))
				if len(secs) != 1 || filepath.Base(secs[0]) != man.Segments[0].Hash+snapSecSuffix {
					t.Fatalf("%s: snapsecs/ holds %v, the manifest %v", r.backend, secs, man.Segments)
				}
			}
		})
	}
}
