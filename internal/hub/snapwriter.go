// The snapshot producer and its directory store. It writes, at a cut taken
// under the commit lock (snapcut.go), one segment: the tuples each source
// gained since the previous manifest, merged with that manifest's last
// segment while it is unsealed, and carries every other segment forward
// by reference — sources are append-only, so a segment's content never
// changes within one directory's lineage. A snapshot therefore costs what
// the increment costs plus at most R tuples and one manifest entry per
// segment, one data file however many sources gained tuples, not what the
// hub holds. After the cut it takes no lock: the tuples it encodes are
// slices of the sources' published views, which never change. The
// manifest rename is the commit point: a crash at any moment leaves
// either the old manifest with a longer log or the new manifest with a
// shorter one, and orphaned segment files are swept on the next open or
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

	"entityid/internal/relation"
	"entityid/internal/wal"
)

// SnapshotStats reports what the most recent snapshot wrote.
type SnapshotStats struct {
	// Watermark is the WAL sequence number the snapshot covers.
	Watermark uint64
	// BytesWritten counts newly written bytes (segment files plus the
	// manifest); carried-forward segments cost nothing, so it is
	// proportional to what was inserted since the previous snapshot, not
	// to the hub.
	BytesWritten int64
	// SectionsWritten and SectionsReused partition the snapshot's
	// segments into encoded and written vs carried forward by reference
	// (every sealed segment the previous manifest held is).
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
	// segItems is snapSegItems; a field so tests can seal segments at
	// hub sizes they can afford.
	segItems int
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
	// diff base that lets its segments carry forward.
	prevMan *snapManifest
	// pastAtCut is the log's Past at the latest committed snapshot's cut:
	// what hub_wal_bytes_since_snapshot counts from.
	pastAtCut atomic.Int64
	// wg tracks the background writer, so Close can quiesce it.
	wg sync.WaitGroup
	// statsMu/stats report the latest completed snapshot.
	//entitylint:lock rank=81
	statsMu sync.Mutex
	stats   SnapshotStats
}

// SnapshotNow forces a synchronous snapshot: cut, segment write,
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
	cut := s.cutLocked()
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
	cut := s.cutLocked()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.snapMu.Unlock()
		_ = s.run(cut) // run has recorded a failure; Close returns it
	}()
}

// walSinceSnapshot is the log's bytes past the latest committed
// snapshot's cut — at open, past the snapshot loaded.
func (s *snapshotter) walSinceSnapshot() int64 { return s.log.Past() - s.pastAtCut.Load() }

// cutLocked takes the hub's cut at the log's end. Callers hold the
// commit lock, which orders the appends.
func (s *snapshotter) cutLocked() *snapshotCut {
	cut := s.hub.cutLocked(s.log.LastSeq())
	cut.past = s.log.Past()
	return cut
}

// run produces the snapshot at cut, for the trigger and SnapshotNow
// alike: log rotation, an incremental write against the previous
// manifest, a sweep of the files it made stale and truncation of the log
// segments it covers. It is the one place a snapshot failure is counted,
// recorded for Close and — when it looks persistent — turned into
// degradation. A failure
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
	sink := newDirSink(s.fs, s.dir, s.prevMan, s.segItems)
	man, err := s.hub.writeSnapshotSections(cut, sink, s.chunkBytes)
	if err != nil {
		return err
	}
	s.prevMan = man
	s.pastAtCut.Store(cut.past)
	st := sink.stats
	st.Taken = time.Now()
	s.statsMu.Lock()
	s.stats = st
	s.statsMu.Unlock()
	// The manifest is committed: segments only older manifests referenced
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

// dirSink persists segments as content-addressed files under snapsecs/,
// carrying forward the segments the previous manifest already holds, and
// commits by atomically renaming the manifest.
type dirSink struct {
	fs       wal.FS
	dir      string
	segItems int
	// prev is the previous manifest's segments when they carry forward:
	// sealed at the same R. nil for a full write.
	prev  []snapSegment
	stats SnapshotStats
	// made says snapsecs/ exists: the first segment written makes it,
	// once per snapshot rather than once per segment.
	made bool
}

// newDirSink takes the previous manifest's segments as the base (prev nil
// for a full write; one sealed at another R shares no segment with this
// one).
func newDirSink(fsys wal.FS, dir string, prev *snapManifest, segItems int) *dirSink {
	s := &dirSink{fs: fsys, dir: dir, segItems: segItems}
	if prev != nil && prev.SegItems == segItems {
		s.prev = prev.Segments
	}
	return s
}

// segments returns the segments that hold the tuples of every source —
// srcs[i] holding tuples[i], in registration order: the previous
// segments that carry forward (base), then what is past them — the
// unsealed last segment's tuples, if it is not carried, and every tuple
// gained since — written as one segment or, past 2R, as segments of R
// with the rest in the last, so that a segment of a large increment does
// not hold up a load's parallel decode.
func (s *dirSink) segments(srcs []snapSource, tuples []relation.Rows, budget int) ([]snapSegment, error) {
	keep, from := s.base(tuples)
	s.stats.SectionsReused += len(keep)
	segs := append([]snapSegment{}, keep...)
	base, rest := 0, 0
	for _, g := range keep {
		base += g.total()
	}
	for i, ts := range tuples {
		rest += ts.Len() - from[i]
	}
	// Cut what is past the kept segments, source-major, into pieces.
	pieces, i := max(1, rest/s.segItems), 0
	for p := 0; p < pieces && rest > 0; p++ {
		size := s.segItems
		if p == pieces-1 {
			size = rest - p*s.segItems
		}
		parts := make([]relation.Rows, len(tuples))
		for left := size; left > 0; {
			if from[i] == tuples[i].Len() {
				i++
				continue
			}
			k := min(left, tuples[i].Len()-from[i])
			parts[i] = tuples[i].Slice(from[i], from[i]+k)
			from[i] += k
			left -= k
		}
		g, err := s.write(base, srcs, parts, budget)
		if err != nil {
			return nil, err
		}
		segs = append(segs, g)
		base += size
	}
	return segs, nil
}

// base returns the previous segments that carry forward and how many
// tuples of each source they hold: every previous segment when the
// sources gained nothing since, else all but an unsealed last one.
// Previous segments that do not fit the sources — more of them, or more
// tuples, than the cut has — carry nothing.
func (s *dirSink) base(tuples []relation.Rows) ([]snapSegment, []int) {
	from := make([]int, len(tuples))
	keep := s.prev
	for _, g := range keep {
		if len(g.Items) > len(from) {
			return nil, make([]int, len(tuples))
		}
		for i, k := range g.Items {
			from[i] += k
		}
	}
	gained := false
	for i, ts := range tuples {
		if from[i] > ts.Len() {
			return nil, make([]int, len(tuples))
		}
		gained = gained || ts.Len() > from[i]
	}
	if n := len(keep); gained && n > 0 && keep[n-1].total() < s.segItems {
		for i, k := range keep[n-1].Items {
			from[i] -= k
		}
		keep = keep[:n-1]
	}
	return keep, from
}

// write encodes one segment — after base items, parts[i] the tuples of
// source srcs[i] it holds — into its content-addressed file.
func (s *dirSink) write(base int, srcs []snapSource, parts []relation.Rows, budget int) (snapSegment, error) {
	secdir := filepath.Join(s.dir, snapSecDir)
	if !s.made {
		if err := s.fs.MkdirAll(secdir, 0o755); err != nil {
			return snapSegment{}, fmt.Errorf("hub: snapshot: %w", err)
		}
		s.made = true
	}
	tmp, err := s.fs.CreateTemp(secdir, "sec-*.tmp")
	if err != nil {
		return snapSegment{}, fmt.Errorf("hub: snapshot: %w", err)
	}
	sw := wal.NewSectionWriter(tmp, uint64(base+1))
	g := snapSegment{Items: make([]int, len(parts))}
	fill := func() error {
		for i, ts := range parts {
			if g.Items[i] = ts.Len(); ts.Len() > 0 {
				if err := writeChunked(srcs[i].Name, ts, budget, sw.WriteChunk); err != nil {
					return err
				}
			}
		}
		return nil
	}
	err = commitFile(s.fs, tmp, fill, func() string {
		g.Chunks, g.Bytes, g.Hash = sw.Chunks(), sw.Bytes(), sw.Sum()
		return secPath(s.dir, g.Hash)
	})
	if err != nil {
		return snapSegment{}, err
	}
	g.Items = trimItems(g.Items)
	s.stats.SectionsWritten++
	s.stats.BytesWritten += sw.Bytes()
	return g, nil
}

func (s *dirSink) finish(man *snapManifest) error {
	frame, err := encodeManifest(man)
	if err != nil {
		return err
	}
	// The segment files (and their directory entry) must be durable
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
// (a segment file's name is the hash of what was written). On any failure the
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

// sweepSections removes segment files the manifest does not reference
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
		for _, g := range man.Segments {
			keep[g.Hash+snapSecSuffix] = true
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
