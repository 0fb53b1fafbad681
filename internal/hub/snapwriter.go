// The snapshot producer and its directory store. It writes one section
// at a time at a cut taken under the commit locks (snapcut.go), carrying
// sections whose content is unchanged since the previous manifest
// forward by reference: sections are
// content-addressed, so a writer that remembers the previous manifest
// writes only what changed (same item count ⇒ same content, by
// append-onlyness within one directory's lineage) — steady-state
// snapshot cost is proportional to change, not to hub size. The
// manifest rename is the commit point: a crash at any moment leaves
// either the old manifest with a longer log or the new manifest with a
// shorter one, and orphaned section files are swept on the next open or
// snapshot.
package hub

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"entityid/internal/wal"
)

// SnapshotStats reports what the most recent snapshot wrote.
type SnapshotStats struct {
	// Watermark is the WAL sequence number the snapshot covers.
	Watermark uint64
	// BytesWritten counts newly written bytes (changed section files
	// plus the manifest); carried-forward sections cost nothing.
	BytesWritten int64
	// SectionsWritten and SectionsReused partition the snapshot's
	// sections into re-encoded vs carried forward by reference.
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
	// diff base that lets unchanged sections carry forward.
	prevMan *snapManifest
	// wg tracks the background writer, so Close can quiesce it.
	wg sync.WaitGroup
	// statsMu/stats report the latest completed snapshot.
	//entitylint:lock rank=81
	statsMu sync.Mutex
	stats   SnapshotStats
}

// SnapshotNow forces a synchronous snapshot: cut, per-section capture
// and write, manifest rename, log truncation. It fails on a memory-only
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

// noteCommit is called by Insert at its commit point, with the commit
// locks held. When the snapshot interval elapses it takes the
// O(sources+pairs) cut and the watermark — the only work done under
// the lock — and hands everything slow (log rotation with its fsync,
// per-section capture, encoding, writing, truncation) to a background
// goroutine, so ingest never waits on snapshot I/O. Because rotation
// happens off-lock, the segment boundary may land past the watermark;
// that only means the boundary segment survives until a later snapshot
// covers it — RemoveThrough removes exactly the segments wholly ≤
// watermark.
func (s *snapshotter) noteCommit() {
	if s.every <= 0 || s.sinceSnap.Add(1) < int64(s.every) {
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
// alike: log rotation, per-section capture under briefly-held locks,
// an incremental write against the previous manifest, a sweep of the
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
	sink := newDirSink(s.fs, s.dir, s.prevMan)
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
	// The manifest is committed: sections only older manifests
	// referenced are now stale.
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

// dirSink persists sections as content-addressed files under
// snapsecs/, carrying unchanged sections forward from the previous
// manifest, and commits by atomically renaming the manifest.
type dirSink struct {
	fs  wal.FS
	dir string
	// prevByID indexes the previous manifest's sections by identity
	// (kind + name/left/right), so carry-forward planning is O(1) per
	// section instead of rescanning the manifest.
	prevByID map[string]snapSection
	stats    SnapshotStats
}

// newDirSink indexes the previous manifest (nil for a full write).
func newDirSink(fsys wal.FS, dir string, prev *snapManifest) *dirSink {
	s := &dirSink{fs: fsys, dir: dir}
	if prev != nil {
		s.prevByID = make(map[string]snapSection, len(prev.Sections))
		for _, sec := range prev.Sections {
			s.prevByID[sectionID(sec)] = sec
		}
	}
	return s
}

// sectionID is a section's identity key within one manifest.
func sectionID(s snapSection) string {
	return s.Kind + "\x1f" + s.Name + "\x1f" + s.Left + "\x1f" + s.Right
}

func (s *dirSink) reuse(meta *snapSection) bool {
	prev, ok := s.prevByID[sectionID(*meta)]
	if !ok {
		return false
	}
	// Clusters sections match on identity alone: the writer only
	// attempts their reuse when every other section carried forward,
	// which pins the partition content.
	if meta.Kind != secClusters && !meta.sameContent(prev) {
		return false
	}
	if _, err := s.fs.Stat(secPath(s.dir, prev.Hash)); err != nil {
		return false
	}
	if meta.Kind == secClusters {
		*meta = prev
	} else {
		meta.Chunks, meta.Bytes, meta.Hash = prev.Chunks, prev.Bytes, prev.Hash
	}
	s.stats.SectionsReused++
	return true
}

func (s *dirSink) write(meta *snapSection, body *sectionBody, budget int) error {
	secdir := filepath.Join(s.dir, snapSecDir)
	if err := s.fs.MkdirAll(secdir, 0o755); err != nil {
		return fmt.Errorf("hub: snapshot: %w", err)
	}
	tmp, err := s.fs.CreateTemp(secdir, "sec-*.tmp")
	if err != nil {
		return fmt.Errorf("hub: snapshot: %w", err)
	}
	sw := wal.NewSectionWriter(tmp)
	err = commitFile(s.fs, tmp, func() error { return writeSectionChunks(sw, body, budget) }, func() string {
		meta.Chunks, meta.Bytes, meta.Hash = sw.Chunks(), sw.Bytes(), sw.Sum()
		return secPath(s.dir, meta.Hash)
	})
	if err != nil {
		return err
	}
	s.stats.SectionsWritten++
	s.stats.BytesWritten += sw.Bytes()
	return nil
}

func (s *dirSink) finish(man *snapManifest) error {
	frame, err := encodeManifest(man)
	if err != nil {
		return err
	}
	// The section files (and their directory entry) must be durable
	// before the manifest that references them commits.
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
// (a section's name is the hash of what was written). On any failure the
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

// sweepSections removes section files the manifest does not reference
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
		for _, s := range man.Sections {
			keep[s.Hash+snapSecSuffix] = true
		}
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
