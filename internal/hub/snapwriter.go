// The snapshot producer and its directory store. It writes one run at a
// time at a cut taken under the commit lock (snapcut.go), carrying the
// runs the previous manifest already holds forward by reference: a run
// at the same position of the same source with the same item count has
// the same content, by append-onlyness within one directory's lineage,
// and a full run never gains a tuple — so a writer that remembers the
// previous manifest re-encodes each source's last, partial run plus
// whatever arrived since, and a snapshot costs what the increment costs
// (plus at most R tuples per source and one manifest entry per run), not
// what the hub holds. After the cut it takes no lock: the tuples it
// encodes are prefixes of the sources' published views, which never
// change. The manifest rename is the commit point: a crash at any moment
// leaves either the old manifest with a longer log or the new manifest
// with a shorter one, and orphaned run files are swept on the next open
// or snapshot.
package hub

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"entityid/internal/relation"
	"entityid/internal/wal"
)

// SnapshotStats reports what the most recent snapshot wrote.
type SnapshotStats struct {
	// Watermark is the WAL sequence number the snapshot covers.
	Watermark uint64
	// BytesWritten counts newly written bytes (run files plus the
	// manifest); carried-forward runs cost nothing, so it is proportional
	// to what was inserted since the previous snapshot, not to the hub.
	BytesWritten int64
	// SectionsWritten and SectionsReused partition the snapshot's runs
	// into encoded and written vs carried forward by reference (every
	// sealed run the previous manifest held is).
	SectionsWritten int
	SectionsReused  int
	// Taken is when the snapshot committed. After Open with no snapshot
	// written yet this session, it is seeded from the on-disk
	// manifest's modification time (zero if no snapshot exists at all),
	// so last-snapshot age survives restarts.
	Taken time.Time
}

// snapshotter drives snapshot production for a durable hub: the
// insert-count trigger, the synchronous SnapshotNow, and the one run
// both end in.
type snapshotter struct {
	log        *wal.Log
	fs         wal.FS
	dir        string
	every      int
	chunkBytes int
	// runItems is snapRunItems; a field so tests can seal runs at hub
	// sizes they can afford.
	runItems int
	// hub is the owner: a cut is taken of it, and a snapshot failure is
	// recorded on and may degrade it.
	hub *Hub
	// sinceSnap counts committed inserts since the last snapshot
	// trigger.
	sinceSnap atomic.Int64
	// snapMu serialises snapshot production (cut → capture → write →
	// truncate); the trigger uses TryLock so ingest never queues behind
	// a snapshot in flight. It also guards prevMan, which only snapshot
	// production touches.
	//entitylint:lock rank=15
	snapMu sync.Mutex
	// prevMan is the manifest of the latest committed snapshot: the
	// diff base that lets sealed and unchanged runs carry forward.
	prevMan *snapManifest
	// wg tracks the background writer, so Close can quiesce it.
	wg sync.WaitGroup
	// statsMu/stats report the latest completed snapshot.
	//entitylint:lock rank=81
	statsMu sync.Mutex
	stats   SnapshotStats
}

// SnapshotNow forces a synchronous snapshot: cut, run writes,
// manifest rename, log truncation. It fails on a memory-only
// hub.
func (h *Hub) SnapshotNow() error {
	s := h.snap
	if s == nil {
		return fmt.Errorf("hub: snapshot of a memory-only hub (use Open)")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	h.mu.RLock()
	h.commitMu.Lock()
	cut := h.cutLocked(s.log.LastSeq())
	h.commitMu.Unlock()
	h.mu.RUnlock()
	return s.run(cut)
}

// LastSnapshot reports what the most recent completed snapshot wrote
// (zero value if none completed this session).
func (h *Hub) LastSnapshot() SnapshotStats {
	s := h.snap
	if s == nil {
		return SnapshotStats{}
	}
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// noteCommits is called by a commit run at its commit point, with the
// commit lock held, for the n tuples it committed. When the snapshot
// interval elapses it takes the O(sources+pairs) cut and the watermark —
// the only work done under the lock — and hands everything slow (log
// rotation with its fsync, encoding, writing, truncation) to a
// background goroutine, so ingest never waits on snapshot I/O. Because
// rotation happens off-lock, the segment boundary may land past the watermark;
// that only means the boundary segment survives until a later snapshot
// covers it — RemoveThrough removes exactly the segments wholly ≤
// watermark.
func (s *snapshotter) noteCommits(n int) {
	if s.every <= 0 || s.sinceSnap.Add(int64(n)) < int64(s.every) {
		return
	}
	if !s.snapMu.TryLock() {
		return // a snapshot is already in flight; never block ingest
	}
	s.sinceSnap.Store(0)
	cut := s.hub.cutLocked(s.log.LastSeq())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.snapMu.Unlock()
		_ = s.run(cut) // run has recorded a failure; Close returns it
	}()
}

// run produces the snapshot at cut, for the trigger and SnapshotNow
// alike: log rotation, an incremental write against the previous manifest, a sweep of the
// files it made stale and truncation of the log segments it covers. It
// is the one place a snapshot failure is counted, recorded for Close
// and — when it looks persistent — turned into degradation. A failure
// does NOT suppress later attempts: a transient error (disk briefly
// full) must not leave the log growing for the rest of the process's
// life. Callers hold snapMu.
func (s *snapshotter) run(cut *snapshotCut) (err error) {
	defer func() {
		if err != nil {
			snapshotFail.Inc()
			s.hub.backgroundFailed(err)
		}
	}()
	if _, err := s.log.Rotate(); err != nil {
		return err
	}
	start := time.Now()
	sink := newDirSink(s.fs, s.dir, s.prevMan, s.runItems)
	man, err := s.hub.writeSnapshotSections(cut, sink, s.chunkBytes)
	if err != nil {
		return err
	}
	s.prevMan = man
	st := sink.stats
	st.Taken = time.Now()
	s.statsMu.Lock()
	s.stats = st
	s.statsMu.Unlock()
	// The manifest is committed: runs only older manifests referenced
	// are now stale.
	if err := sweepSections(s.fs, s.dir, man); err != nil {
		return fmt.Errorf("hub: snapshot: %w", err)
	}
	if err := s.log.RemoveThrough(cut.watermark); err != nil {
		return err
	}
	snapshotOK.Inc()
	mSnapshotSeconds.Since(start)
	mSnapshotBytes.Add(uint64(st.BytesWritten))
	mSnapSectionsWritten.Add(uint64(st.SectionsWritten))
	mSnapSectionsReused.Add(uint64(st.SectionsReused))
	return nil
}

// dirSink persists runs as content-addressed files under snapsecs/,
// carrying forward the runs the previous manifest already holds, and
// commits by atomically renaming the manifest.
type dirSink struct {
	fs       wal.FS
	dir      string
	runItems int
	// prev indexes the previous manifest's run directories by source
	// name, so planning a snapshot is O(sources).
	prev  map[string][]snapRun
	stats SnapshotStats
	// made says snapsecs/ exists: the first run written makes it, once
	// per snapshot rather than once per run.
	made bool
}

// newDirSink indexes the previous manifest (nil for a full write; one
// cut at another run length shares no run with this one).
func newDirSink(fsys wal.FS, dir string, prev *snapManifest, runItems int) *dirSink {
	s := &dirSink{fs: fsys, dir: dir, runItems: runItems, prev: map[string][]snapRun{}}
	if prev != nil && prev.RunItems == runItems {
		for _, src := range prev.Sources {
			s.prev[src.Name] = src.Runs
		}
	}
	return s
}

// runs returns the run directory of source id holding tuples: the
// leading runs the previous manifest holds at the same length are carried
// forward — every sealed one is — and the rest are cut from tuples and
// written.
func (s *dirSink) runs(id runID, tuples []relation.Tuple, budget int) ([]snapRun, error) {
	prev, n := s.prev[id.name], len(tuples)
	k := 0
	for k < len(prev) && prev[k].Items == min(s.runItems, n-k*s.runItems) {
		k++
	}
	s.stats.SectionsReused += k
	runs, lo := prev[:k:k], k*s.runItems
	for at := lo; at < n; at += s.runItems {
		id.run = len(runs)
		meta, err := s.write(id, tuples[at:min(at+s.runItems, n)], budget)
		if err != nil {
			return nil, err
		}
		runs = append(runs, meta)
	}
	return runs, nil
}

// write encodes one run into its content-addressed file.
func (s *dirSink) write(id runID, tuples []relation.Tuple, budget int) (snapRun, error) {
	secdir := filepath.Join(s.dir, snapSecDir)
	if !s.made {
		if err := s.fs.MkdirAll(secdir, 0o755); err != nil {
			return snapRun{}, fmt.Errorf("hub: snapshot: %w", err)
		}
		s.made = true
	}
	tmp, err := s.fs.CreateTemp(secdir, "sec-*.tmp")
	if err != nil {
		return snapRun{}, fmt.Errorf("hub: snapshot: %w", err)
	}
	sw := wal.NewSectionWriter(tmp, uint64(id.run*s.runItems+1))
	meta := snapRun{Items: len(tuples)}
	err = commitFile(s.fs, tmp, func() error { return writeChunked(id.name, tuples, budget, sw.WriteChunk) }, func() string {
		meta.Chunks, meta.Bytes, meta.Hash = sw.Chunks(), sw.Bytes(), sw.Sum()
		return secPath(s.dir, meta.Hash)
	})
	if err != nil {
		return snapRun{}, err
	}
	s.stats.SectionsWritten++
	s.stats.BytesWritten += sw.Bytes()
	return meta, nil
}

func (s *dirSink) finish(man *snapManifest) error {
	frame, err := encodeManifest(man)
	if err != nil {
		return err
	}
	// The run files (and their directory entry) must be durable before
	// the manifest that references them commits.
	syncDir(s.fs, filepath.Join(s.dir, snapSecDir))
	tmp, err := s.fs.OpenFile(filepath.Join(s.dir, snapshotManTmp), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("hub: snapshot: %w", err)
	}
	write := func() error { _, err := tmp.Write(frame); return err }
	if err := commitFile(s.fs, tmp, write, func() string { return filepath.Join(s.dir, snapshotManifest) }); err != nil {
		return err
	}
	syncDir(s.fs, s.dir)
	s.stats.BytesWritten += int64(len(frame))
	s.stats.Watermark = man.Watermark
	return nil
}

// commitFile is the one durable file write: fill writes the open
// temporary file f, which is then fsynced, closed and renamed to dst()
// (a run file's name is the hash of what was written). On any failure the
// temporary file is removed and nothing appears under dst.
func commitFile(fsys wal.FS, f wal.File, fill func() error, dst func() string) error {
	err := fill()
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(f.Name(), dst())
	}
	if err != nil {
		fsys.Remove(f.Name())
		return fmt.Errorf("hub: snapshot: %w", err)
	}
	return nil
}

// syncDir best-effort fsyncs a directory so renames within it are
// durable (errors are ignored: some filesystems reject directory
// fsync, and the rename itself is still atomic).
func syncDir(fsys wal.FS, path string) {
	if d, err := fsys.Open(path); err == nil {
		d.Sync()
		d.Close()
	}
}

// sweepSections removes run files the manifest does not reference
// (man may be nil: remove them all). The caller holds the directory
// lock.
func sweepSections(fsys wal.FS, dir string, man *snapManifest) error {
	secdir := filepath.Join(dir, snapSecDir)
	ents, err := fsys.ReadDir(secdir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	keep := map[string]bool{}
	if man != nil {
		man.eachRun(func(_ runID, r snapRun) { keep[r.Hash+snapSecSuffix] = true })
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), snapSecSuffix) && !strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		if keep[e.Name()] {
			continue
		}
		if err := fsys.Remove(filepath.Join(secdir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}
