// Hub durability: the write-ahead log and snapshot machinery behind
// Open. Every committed mutation — AddSource, Link, Insert — is
// appended to a wal.Log before it is applied (hub.go calls the
// append* helpers at its commit points), so the on-disk log is always
// a prefix-exact account of the in-memory state: recovery loads the
// latest snapshot and replays the log tail past the snapshot
// watermark, reproducing clusters, matching tables and canonical
// relations bit-for-bit.
//
// Snapshots have one representation (snapshot.go): the data directory
// holds a manifest file plus one content-addressed section file per
// source/pair/partition under snapsecs/. The background writer takes
// an O(sources+pairs) cut at the trigger (the only work under the
// commit locks), then captures and writes one section at a time,
// carrying sections whose content is unchanged since the
// previous manifest forward by reference — steady-state snapshot cost
// is proportional to change. The manifest rename is the commit point:
// a crash at any moment leaves either the old manifest with a longer
// log or the new manifest with a shorter one, and orphaned section
// files are swept on the next open or snapshot.
//
// Jumbo source registrations take the same medicine: an AddSource
// whose seed relation would overflow one WAL frame is logged as a
// source_begin record plus source_chunk continuations, committing at
// the final chunk; replay discards a group the log abandons mid-way
// (the registration was never acknowledged).
package hub

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"entityid/internal/relation"
	"entityid/internal/store"
	"entityid/internal/store/disk"
	"entityid/internal/wal"
)

const (
	snapshotManifest = "snapshot.manifest.ei"
	snapshotManTmp   = "snapshot.manifest.ei.tmp"
	snapSecDir       = "snapsecs"
	snapSecSuffix    = ".sec"
)

// Options configures a durable hub.
type Options struct {
	// SnapshotEvery is the number of committed inserts between
	// background snapshots (and the accompanying log truncation);
	// 0 disables automatic snapshots — the log grows until SnapshotNow.
	SnapshotEvery int
	// SyncEvery, when positive, fsyncs the write-ahead log after every
	// N appends (group commit): the window of committed-but-volatile
	// records under a power-loss crash model is bounded by N, and every
	// ingest stream flushes the remainder at its flush epochs — when its
	// input runs empty and before its (or a batch's) results end.
	// 0 leaves durability between snapshots to the OS page cache.
	SyncEvery int
	// ChunkBytes overrides the snapshot chunk payload budget
	// (0 means wal.DefaultChunkPayload). Also bounds the seed-tuple
	// batches of chunked AddSource log records.
	ChunkBytes int
	// FS is the filesystem the durability stack performs every file
	// operation through; nil means the real one (wal.OS). Tests inject
	// internal/wal/errfs here to drive ENOSPC/EIO/fsync stalls into
	// chosen call points.
	FS wal.FS
	// ProbeBackoff and ProbeBackoffMax shape the degraded-mode
	// recovery probe loop: the first probe fires after ProbeBackoff,
	// each failure doubles the delay, capped at ProbeBackoffMax.
	// Zero values mean 500ms and 15s.
	ProbeBackoff    time.Duration
	ProbeBackoffMax time.Duration
	// Store selects the storage backend by name: "mem" (the default)
	// keeps every structure resident; "disk" spills cold cluster
	// records and cold pair matching tables to a tier under the data
	// directory, paging them back on demand. Empty falls back to the
	// ENTITYID_STORE environment variable, then to "mem".
	Store string
	// Backend, when non-nil, is used directly and overrides Store.
	// The hub takes ownership and closes it with Close.
	Backend store.Backend
	// HotClusterEntries and HotPairs bound the disk backend's hot
	// tiers (total resident cluster members across records, resident
	// pair federations). Zero falls back to the
	// ENTITYID_STORE_HOT_CLUSTERS / ENTITYID_STORE_HOT_PAIRS
	// environment variables, then to the defaults.
	HotClusterEntries int
	HotPairs          int
}

// Default hot-tier budgets for the disk backend.
const (
	defaultHotClusterEntries = 1 << 16
	defaultHotPairs          = 8
)

// storeTierDir is the data-directory subdirectory the disk backend
// roots its spill tier in. The tier is an ephemeral cache — wiped on
// open; durability is always the WAL plus snapshots.
const storeTierDir = "storetier"

// resolveBackend picks the storage backend for a durable hub:
// opts.Backend if set, else the backend opts.Store names, else the
// ENTITYID_STORE environment variable, else memory (returned as nil —
// NewWithBackend supplies the memory backend). The caller must hold
// the directory lock: opening the disk backend wipes its spill tier.
func resolveBackend(dir string, opts Options) (store.Backend, error) {
	if opts.Backend != nil {
		return opts.Backend, nil
	}
	name := opts.Store
	if name == "" {
		name = os.Getenv("ENTITYID_STORE")
	}
	switch name {
	case "", "mem":
		return nil, nil
	case "disk":
		var caps store.Caps
		var err error
		if caps.HotClusterEntries, err = budgetFor(opts.HotClusterEntries, "ENTITYID_STORE_HOT_CLUSTERS", defaultHotClusterEntries); err != nil {
			return nil, err
		}
		if caps.HotPairs, err = budgetFor(opts.HotPairs, "ENTITYID_STORE_HOT_PAIRS", defaultHotPairs); err != nil {
			return nil, err
		}
		return disk.Open(filepath.Join(dir, storeTierDir), caps)
	default:
		return nil, fmt.Errorf("unknown storage backend %q (want mem or disk)", name)
	}
}

// budgetFor resolves one hot-tier budget: explicit option, environment
// override, default. An override that is set but not a positive integer
// is an error naming the variable, never a silent fall-back to the
// default: a typo must not run a "squeezed" tier unsqueezed.
func budgetFor(opt int, env string, def int) (int, error) {
	if opt > 0 {
		return opt, nil
	}
	v := os.Getenv(env)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("%s=%q: want a positive integer", env, v)
	}
	return n, nil
}

// Default recovery-probe backoff bounds.
const (
	defaultProbeBackoff    = 500 * time.Millisecond
	defaultProbeBackoffMax = 15 * time.Second
)

// RecoveryInfo reports what Open reconstructed.
type RecoveryInfo struct {
	// FromSnapshot reports whether a snapshot was loaded.
	FromSnapshot bool
	// Watermark is the snapshot's last covered sequence number.
	Watermark uint64
	// LastSeq is the last good WAL record.
	LastSeq uint64
	// Replayed counts the log records applied after the watermark.
	Replayed int
	// TailDamage is non-empty when a torn or corrupt log tail was
	// detected (CRC/length/sequence check) and recovery stopped at the
	// last good record.
	TailDamage string
}

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

// Open opens (or creates) a durable hub rooted at dir: it loads the
// snapshot the manifest names if one exists, replays the write-ahead
// log tail past the snapshot watermark, and attaches the logger so
// subsequent mutations are persisted. The returned hub must be Closed.
func Open(dir string, opts Options) (*Hub, *RecoveryInfo, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = wal.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("hub: open %s: %w", dir, err)
	}
	// The flock comes first: until it is held, a live writer may own
	// this directory and every file in it — including an in-flight
	// snapshot temp — so nothing may be read or removed yet.
	l, err := wal.OpenFS(dir, fsys)
	if err != nil {
		return nil, nil, fmt.Errorf("hub: open %s: %w", dir, err)
	}
	// A leftover temp file is an interrupted manifest write by a now dead
	// writer (we hold the lock); the committed snapshot (if any) is
	// intact, so the temp is garbage.
	fsys.Remove(filepath.Join(dir, snapshotManTmp))

	// The backend opens under the lock too: the disk backend wipes and
	// recreates its spill tier, which must never race a live writer.
	b, err := resolveBackend(dir, opts)
	if err != nil {
		l.Close()
		return nil, nil, fmt.Errorf("hub: open %s: %w", dir, err)
	}
	fail := func(err error) (*Hub, *RecoveryInfo, error) {
		if b != nil {
			b.Close()
		}
		l.Close()
		return nil, nil, err
	}

	info := &RecoveryInfo{}
	var h *Hub
	var prevMan *snapManifest
	switch man, err := readManifest(fsys, dir); {
	case err == nil:
		h, err = loadSnapshotSections(fsys, dir, man, b)
		if err != nil {
			return fail(fmt.Errorf("hub: open %s: %w", dir, err))
		}
		prevMan = man
		info.FromSnapshot = true
		info.Watermark = man.Watermark
	case os.IsNotExist(err):
		h = NewWithBackend(b)
	default:
		return fail(fmt.Errorf("hub: open %s: %w", dir, err))
	}
	// Sweep section files no committed manifest references — debris of
	// snapshot attempts a crash interrupted before their manifest
	// rename.
	if err := sweepSections(fsys, dir, prevMan); err != nil {
		return fail(fmt.Errorf("hub: open %s: %w", dir, err))
	}

	if d := l.Damage(); d != nil {
		info.TailDamage = d.Error()
	}
	// Cross-check the log against the snapshot before trusting either: a
	// partially restored directory (lost segments, lost snapshot) would
	// otherwise replay around a hole — or log new commits at sequence
	// numbers a later replay skips. Fail closed instead.
	switch {
	case info.FromSnapshot && l.LastSeq() < info.Watermark:
		return fail(fmt.Errorf("hub: open %s: write-ahead log ends at record %d but the snapshot covers through %d: log records are missing",
			dir, l.LastSeq(), info.Watermark))
	case info.FromSnapshot && l.OldestSeq() > info.Watermark+1:
		return fail(fmt.Errorf("hub: open %s: write-ahead log starts at record %d but the snapshot covers only through %d: log records are missing",
			dir, l.OldestSeq(), info.Watermark))
	case !info.FromSnapshot && l.LastSeq() > 0 && l.OldestSeq() > 1:
		return fail(fmt.Errorf("hub: open %s: write-ahead log starts at record %d with no snapshot covering the truncated prefix",
			dir, l.OldestSeq()))
	}
	n, err := h.Replay(l, info.Watermark)
	if err != nil {
		return fail(fmt.Errorf("hub: open %s: %w", dir, err))
	}
	info.Replayed = n
	info.LastSeq = l.LastSeq()
	probe, probeMax := opts.ProbeBackoff, opts.ProbeBackoffMax
	if probe <= 0 {
		probe = defaultProbeBackoff
	}
	if probeMax <= 0 {
		probeMax = defaultProbeBackoffMax
	}
	h.per = &walLogger{
		log: l, fs: fsys, dir: dir, every: opts.SnapshotEvery,
		syncEvery: opts.SyncEvery, chunkBytes: opts.ChunkBytes,
		prevMan: prevMan, hub: h,
		probeBase: probe, probeMax: probeMax,
		done: make(chan struct{}),
	}
	if prevMan != nil {
		// Seed last-snapshot age across restarts from the committed
		// manifest's mtime; byte/section figures stay zero — nothing was
		// written this session.
		if fi, serr := fsys.Stat(filepath.Join(dir, snapshotManifest)); serr == nil {
			h.per.stats.Taken = fi.ModTime()
			h.per.stats.Watermark = prevMan.Watermark
		}
	}
	return h, info, nil
}

// readManifest reads and validates the committed manifest file.
func readManifest(fsys wal.FS, dir string) (*snapManifest, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, snapshotManifest))
	if err != nil {
		return nil, err
	}
	rec, err := wal.DecodeRecord(data)
	if err != nil {
		return nil, fmt.Errorf("snapshot manifest: %w", err)
	}
	return decodeManifest(rec)
}

// secPath names a section's content-addressed file.
func secPath(dir, hash string) string {
	return filepath.Join(dir, snapSecDir, hash+snapSecSuffix)
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

// loadSnapshotSections rebuilds a hub from a manifest's section files,
// decoding independent sections in parallel and verifying each file's
// content hash, chunk count and item counts against the manifest. The
// hub is assembled onto the given storage backend (nil means memory).
func loadSnapshotSections(fsys wal.FS, dir string, man *snapManifest, b store.Backend) (*Hub, error) {
	secs := make([]*decSection, len(man.Sections))
	errs := make([]error, len(man.Sections))
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxParallel())
	for i, want := range man.Sections {
		wg.Add(1)
		go func(i int, want snapSection) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			secs[i], errs[i] = readSectionFile(fsys, dir, i, want)
		}(i, want)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return assembleHub(secs, b)
}

// readSectionFile decodes one section file and verifies the result —
// identity, counts, content hash — against its manifest entry.
func readSectionFile(fsys wal.FS, dir string, sec int, want snapSection) (*decSection, error) {
	f, err := fsys.Open(secPath(dir, want.Hash))
	if err != nil {
		return nil, fmt.Errorf("snapshot section: %w", err)
	}
	defer f.Close()
	d, err := decodeSection(f, sec)
	if err != nil {
		return nil, err
	}
	if err := d.matches(want); err != nil {
		return nil, err
	}
	return d, nil
}

// decodeSection streams one section's bytes through the chunk decoder.
func decodeSection(r io.Reader, sec int) (*decSection, error) {
	a := newSectionAccum(sec)
	scanner := wal.NewFrameScanner(r)
	for !a.done {
		rec, raw, err := scanner.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("hub: snapshot section %d: %w", sec, err)
		}
		if err := a.addChunk(rec, raw); err != nil {
			return nil, err
		}
	}
	if a.done {
		if _, _, err := scanner.Next(); err != io.EOF {
			return nil, fmt.Errorf("hub: snapshot section %d: trailing frames after final chunk", sec)
		}
	}
	return a.finish()
}

// Replay re-applies the log tail after the snapshot watermark: every
// record with a later sequence number is decoded and re-applied through
// the normal mutation paths (records the snapshot already covers are
// skipped). It returns the number of records applied. Replay must run
// before the logger is attached, so replayed mutations are not
// re-logged.
//
// A chunked source registration (source_begin + source_chunk records)
// commits only at its final chunk; a group the log abandons mid-way —
// the writer crashed or its append failed between chunks, so the
// registration was never acknowledged — is discarded, exactly like a
// torn single record.
//
// Replay decodes ahead the way a stream encodes ahead: the log read, the
// frame checks and the JSON decoding of each record run on a second
// goroutine (inside the log's replay callback), the mutations on the
// caller's, in log order. A record that fails to decode travels down the
// same channel as the good ones before it, so the error returned, the
// count and the hub's state on failure are those of a serial replay.
func (h *Hub) Replay(l *wal.Log, after uint64) (int, error) {
	if h.per != nil {
		return 0, fmt.Errorf("hub: replay into a hub that is already logging")
	}
	// recs is as deep as a stream's channels, for the same reason: enough
	// for the decoder to run ahead of a slow apply, bounded in memory.
	recs := make(chan replayRecord, defaultStreamWindow)
	stop := make(chan struct{})
	var readErr error
	go func() {
		defer close(recs)
		readErr = l.Replay(after, func(rec wal.Record) error {
			d := decodeReplayRecord(rec)
			select {
			case recs <- d:
			case <-stop:
				return errReplayStopped
			}
			if d.err != nil {
				return errReplayStopped // the applier fails here; read no further
			}
			return nil
		})
	}()
	n := 0
	var open *pendingSource
	var err error
	// The range ends only when the reader has returned, so no goroutine
	// (and no log read) outlives Replay, failed or not.
	for d := range recs {
		if err != nil {
			continue // failed: drain what the reader had in flight
		}
		applied := 0
		if d.err == nil {
			applied, d.err = h.applyRecord(d, &open)
		}
		if d.err != nil {
			err = fmt.Errorf("record %d: %w", d.seq, d.err)
			close(stop)
			continue
		}
		n += applied
	}
	if err == nil {
		err = readErr
	}
	// A group still open at the end of the log is an abandoned,
	// unacknowledged registration; its records were never counted and
	// nothing of it reached the hub.
	return n, err
}

// errReplayStopped ends the log read once the applying side has failed;
// the failure itself is what Replay returns.
var errReplayStopped = errors.New("hub: replay stopped")

// replayRecord is one log record decoded ahead of its application: the
// envelope, an insert's tuple, or the error decoding either gave.
type replayRecord struct {
	seq   uint64
	env   wal.Envelope
	tuple relation.Tuple
	err   error
}

func decodeReplayRecord(rec wal.Record) replayRecord {
	d := replayRecord{seq: rec.Seq}
	d.env, d.err = wal.DecodeEnvelope(rec.Payload)
	if d.err == nil && d.env.Type == wal.TypeInsert {
		d.tuple, d.err = wal.DecodeTuple(d.env.Insert.Tuple)
	}
	return d
}

// pendingSource buffers an in-flight chunked source registration during
// replay. records counts the group's log records, applied to the total
// only when the group commits.
type pendingSource struct {
	name    string
	rel     *relation.Relation
	records int
}

// applyRecord re-applies one decoded WAL record, returning how many log
// records it committed (group records count at the final chunk). open
// threads the chunked-registration state machine between records.
func (h *Hub) applyRecord(d replayRecord, open **pendingSource) (int, error) {
	env := d.env
	if env.Type != wal.TypeSourceChunk && *open != nil {
		// Any non-continuation record aborts an open group: the group's
		// writer saw an append fail and the registration was rejected.
		// Forget the partial source; nothing of it was committed.
		*open = nil
	}
	switch env.Type {
	case wal.TypeAddSource:
		sch, err := wal.DecodeSchema(env.AddSource.Schema)
		if err != nil {
			return 0, err
		}
		rel := relation.New(sch)
		for i, tr := range env.AddSource.Tuples {
			t, err := wal.DecodeTuple(tr)
			if err != nil {
				return 0, fmt.Errorf("seed tuple %d: %w", i, err)
			}
			if err := rel.Insert(t); err != nil {
				return 0, fmt.Errorf("seed tuple %d: %w", i, err)
			}
		}
		return 1, h.addSourceOwned(env.AddSource.Name, rel)
	case wal.TypeSourceBegin:
		sch, err := wal.DecodeSchema(env.SourceBegin.Schema)
		if err != nil {
			return 0, err
		}
		*open = &pendingSource{name: env.SourceBegin.Name, rel: relation.New(sch), records: 1}
		return 0, nil
	case wal.TypeSourceChunk:
		p := *open
		if p == nil || p.name != env.SourceChunk.Name {
			return 0, fmt.Errorf("hub: source_chunk for %q without matching source_begin", env.SourceChunk.Name)
		}
		for i, tr := range env.SourceChunk.Tuples {
			t, err := wal.DecodeTuple(tr)
			if err != nil {
				return 0, fmt.Errorf("seed tuple %d: %w", i, err)
			}
			if err := p.rel.Insert(t); err != nil {
				return 0, fmt.Errorf("seed tuple %d: %w", i, err)
			}
		}
		p.records++
		if !env.SourceChunk.Final {
			return 0, nil
		}
		*open = nil
		return p.records, h.addSourceOwned(p.name, p.rel)
	case wal.TypeLink:
		spec, err := specFromLinkRec(*env.Link)
		if err != nil {
			return 0, err
		}
		return 1, h.Link(spec)
	case wal.TypeInsert:
		_, err := h.Insert(env.Insert.Source, d.tuple)
		return 1, err
	default:
		return 0, fmt.Errorf("hub: unknown record type %q", env.Type)
	}
}

// Close quiesces any in-flight background snapshot, closes the
// write-ahead log, and closes the storage backend. It returns the
// first background snapshot error, if any. A memory-only hub's close
// is a no-op (the memory backend has nothing to release).
func (h *Hub) Close() error {
	var err error
	if h.per != nil {
		err = h.per.close()
	}
	if h.backend != nil {
		if cerr := h.backend.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// SnapshotNow forces a synchronous snapshot: cut, per-section capture
// and write, manifest rename, log truncation. It fails on a memory-only
// hub.
func (h *Hub) SnapshotNow() error {
	p := h.per
	if p == nil {
		return fmt.Errorf("hub: snapshot of a memory-only hub (use Open)")
	}
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	h.mu.RLock()
	h.commitMu.Lock()
	cut := h.cutLocked(p.log.LastSeq())
	h.commitMu.Unlock()
	h.mu.RUnlock()
	if _, err := p.log.Rotate(); err != nil {
		if isPersistentIO(err) {
			h.degrade(err)
		}
		return err
	}
	if err := p.writeSnapshot(h, cut); err != nil {
		if isPersistentIO(err) {
			h.degrade(err)
		}
		return err
	}
	return nil
}

// LastSnapshot reports what the most recent completed snapshot wrote
// (zero value if none completed this session).
func (h *Hub) LastSnapshot() SnapshotStats {
	p := h.per
	if p == nil {
		return SnapshotStats{}
	}
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.stats
}

// walLogger couples a hub to its write-ahead log and drives background
// snapshotting.
type walLogger struct {
	log        *wal.Log
	fs         wal.FS
	dir        string
	every      int
	syncEvery  int
	chunkBytes int
	// hub is the owner, so persistence failures discovered off the
	// ingest path (group-commit fsync, background snapshots) can
	// degrade it too.
	hub *Hub
	// probeBase/probeMax bound the degraded-mode recovery backoff;
	// probing guards the singleton probe loop, done stops it (and is
	// closed exactly once, by close or quiesce).
	probeBase time.Duration
	probeMax  time.Duration
	probing   atomic.Bool
	done      chan struct{}
	doneOnce  sync.Once
	// sinceSnap counts committed inserts since the last snapshot
	// trigger.
	sinceSnap atomic.Int64
	// unsynced counts appends since the last fsync under the opt-in
	// group-commit policy; a failed fsync leaves the count pending so
	// the next append retries. syncMu serialises the flushes.
	unsynced atomic.Int64
	//entitylint:lock rank=70
	syncMu sync.Mutex
	// snapMu serialises snapshot production (cut → capture → write →
	// truncate); the trigger uses TryLock so ingest never queues behind
	// a snapshot in flight. It also guards prevMan, which only snapshot
	// production touches.
	//entitylint:lock rank=15
	snapMu sync.Mutex
	// prevMan is the manifest of the latest committed snapshot: the
	// diff base that lets unchanged sections carry forward.
	prevMan *snapManifest
	// wg tracks the background writer, so close can quiesce it.
	wg sync.WaitGroup
	// errMu/bgErr hold the first background snapshot failure, surfaced
	// by close. Failures do NOT suppress later snapshot attempts: a
	// transient error (disk briefly full) must not leave the log
	// growing unboundedly for the rest of the process lifetime.
	//entitylint:lock rank=80
	errMu sync.Mutex
	bgErr error
	// statsMu/stats report the latest completed snapshot.
	//entitylint:lock rank=81
	statsMu sync.Mutex
	stats   SnapshotStats
}

//entitylint:walappend
func (p *walLogger) append(env wal.Envelope) error {
	payload, err := env.Encode()
	if err != nil {
		return err
	}
	return p.appendPayload(payload)
}

// appendPayload appends an already-encoded record — inserts arrive
// marshaled (encodeInsert), off the commit path.
//
//entitylint:walappend
func (p *walLogger) appendPayload(payload []byte) error {
	if _, err := p.log.Append(payload); err != nil {
		return err
	}
	p.maybeSync()
	return nil
}

// maybeSync applies the opt-in group-commit policy: after every
// SyncEvery appends, force the log to stable storage. The record is
// already committed when the sync runs, so a sync failure is surfaced
// as a background error (like a failed snapshot) rather than un-doing
// an acknowledged commit — but the pending count is only consumed on
// success, so the very next append retries the fsync and the
// power-loss exposure stays bounded at N instead of silently widening.
func (p *walLogger) maybeSync() {
	if p.syncEvery <= 0 {
		return
	}
	if p.unsynced.Add(1) < int64(p.syncEvery) {
		return
	}
	p.syncPending()
}

// syncPending fsyncs and consumes exactly the counted appends the sync
// covered (an append racing in after the Sync keeps its count, so it is
// flushed by a later sync); with nothing counted — always the case
// without the group-commit policy — it is a no-op. syncMu makes the
// load-sync-subtract triple atomic against concurrent flushes.
func (p *walLogger) syncPending() {
	if p.unsynced.Load() == 0 {
		return // nothing counted: skip the lock too (flush epochs land here per stream)
	}
	p.syncMu.Lock()
	defer p.syncMu.Unlock()
	n := p.unsynced.Load()
	if n <= 0 {
		return
	}
	if err := p.log.Sync(); err != nil {
		p.fail(err)
		return
	}
	p.unsynced.Add(-n)
}

// appendAddSource logs a source registration. A seed relation that fits
// one frame-capped chunk is logged as a single add_source record,
// byte-compatible with older logs; a jumbo relation is split into a
// source_begin record plus budget-sized source_chunk continuations
// (the same writeChunked splitter the snapshot sections use, frame-cap
// halving included) that commit atomically at the final chunk.
//
//entitylint:walappend
func (p *walLogger) appendAddSource(name string, rel *relation.Relation) error {
	budget := p.chunkBytes
	if budget <= 0 {
		budget = wal.DefaultChunkPayload
	}
	tuples := rel.Tuples()
	items := tupleItems(tuples)
	total := 0
	for i := range tuples {
		total += items.estimate(i)
	}
	if total < budget {
		return p.append(wal.Envelope{Type: wal.TypeAddSource, AddSource: &wal.AddSourceRec{
			Name:   name,
			Schema: wal.EncodeSchema(rel.Schema()),
			Tuples: wal.EncodeTuples(tuples),
		}})
	}
	if err := p.append(wal.Envelope{Type: wal.TypeSourceBegin, SourceBegin: &wal.SourceBeginRec{
		Name:   name,
		Schema: wal.EncodeSchema(rel.Schema()),
	}}); err != nil {
		return err
	}
	encode := func(lo, hi int, _, last bool) ([]byte, error) {
		env := wal.Envelope{Type: wal.TypeSourceChunk, SourceChunk: &wal.SourceChunkRec{
			Name:   name,
			Tuples: wal.EncodeTuples(tuples[lo:hi]),
			Final:  last,
		}}
		return env.Encode()
	}
	return writeChunked(items, p.chunkBytes, encode, p.appendPayload)
}

//entitylint:walappend
func (p *walLogger) appendLink(spec PairSpec) error {
	rec := linkRecFromSpec(spec)
	return p.append(wal.Envelope{Type: wal.TypeLink, Link: &rec})
}

// encodeInsert marshals an insert's write-ahead-log record: the one
// encoding behind Insert and IngestStream (Hub.walPayload).
func encodeInsert(source string, t relation.Tuple) ([]byte, error) {
	return wal.Envelope{Type: wal.TypeInsert, Insert: &wal.InsertRec{
		Source: source,
		Tuple:  wal.EncodeTuple(t),
	}}.Encode()
}

func (p *walLogger) fail(err error) {
	p.errMu.Lock()
	if p.bgErr == nil {
		p.bgErr = err
	}
	p.errMu.Unlock()
	// A persistent background failure (fsync ENOSPC, snapshot EIO)
	// degrades the hub just like an ingest-path append failure.
	if p.hub != nil && isPersistentIO(err) {
		p.hub.degrade(err)
	}
}

func (p *walLogger) failed() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.bgErr
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
func (p *walLogger) noteCommit(h *Hub) {
	if p.every <= 0 || p.sinceSnap.Add(1) < int64(p.every) {
		return
	}
	if !p.snapMu.TryLock() {
		return // a snapshot is already in flight; never block ingest
	}
	p.sinceSnap.Store(0)
	cut := h.cutLocked(p.log.LastSeq())
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer p.snapMu.Unlock()
		if _, err := p.log.Rotate(); err != nil {
			p.fail(err)
			return
		}
		if err := p.writeSnapshot(h, cut); err != nil {
			p.fail(err)
		}
	}()
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
	tmpName := tmp.Name()
	sw := wal.NewSectionWriter(tmp)
	if err := writeSectionChunks(sw, body, budget); err != nil {
		tmp.Close()
		s.fs.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		s.fs.Remove(tmpName)
		return fmt.Errorf("hub: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		s.fs.Remove(tmpName)
		return fmt.Errorf("hub: snapshot: %w", err)
	}
	meta.Chunks, meta.Bytes, meta.Hash = sw.Chunks(), sw.Bytes(), sw.Sum()
	if err := s.fs.Rename(tmpName, secPath(s.dir, meta.Hash)); err != nil {
		s.fs.Remove(tmpName)
		return fmt.Errorf("hub: snapshot: %w", err)
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
	tmp := filepath.Join(s.dir, snapshotManTmp)
	if err := writeFileSync(s.fs, tmp, frame); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, snapshotManifest)); err != nil {
		return fmt.Errorf("hub: snapshot: %w", err)
	}
	syncDir(s.fs, s.dir)
	s.stats.BytesWritten += int64(len(frame))
	s.stats.Watermark = man.Watermark
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

// writeFileSync writes and fsyncs a file.
func writeFileSync(fsys wal.FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("hub: snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("hub: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("hub: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("hub: snapshot: %w", err)
	}
	return nil
}

// writeSnapshot persists a snapshot at the given cut — per-section
// capture under briefly-held locks, incremental against the previous
// manifest — then sweeps stale files and truncates the log segments the
// snapshot covers. Callers hold snapMu.
func (p *walLogger) writeSnapshot(h *Hub, cut *snapshotCut) error {
	start := time.Now()
	if err := p.writeSnapshotLocked(h, cut); err != nil {
		snapshotFail.Inc()
		return err
	}
	snapshotOK.Inc()
	mSnapshotSeconds.Since(start)
	p.statsMu.Lock()
	st := p.stats
	p.statsMu.Unlock()
	mSnapshotBytes.Add(uint64(st.BytesWritten))
	mSnapSectionsWritten.Add(uint64(st.SectionsWritten))
	mSnapSectionsReused.Add(uint64(st.SectionsReused))
	return nil
}

func (p *walLogger) writeSnapshotLocked(h *Hub, cut *snapshotCut) error {
	sink := newDirSink(p.fs, p.dir, p.prevMan)
	man, err := h.writeSnapshotSections(cut, sink, p.chunkBytes)
	if err != nil {
		return err
	}
	p.prevMan = man
	p.statsMu.Lock()
	p.stats = sink.stats
	p.stats.Taken = time.Now()
	p.statsMu.Unlock()
	// The manifest is committed: sections only older manifests
	// referenced are now stale.
	if err := sweepSections(p.fs, p.dir, man); err != nil {
		return fmt.Errorf("hub: snapshot: %w", err)
	}
	return p.log.RemoveThrough(cut.watermark)
}

// startProbes launches the degraded-mode recovery loop (at most one at
// a time): capped exponential backoff between probes, stop on recovery
// or when the logger shuts down. Called by Hub.degrade.
func (p *walLogger) startProbes(h *Hub) {
	if p.done == nil || !p.probing.CompareAndSwap(false, true) {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer p.probing.Store(false)
		delay := p.probeBase
		t := time.NewTimer(delay)
		defer t.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-t.C:
			}
			if State(h.health.state.Load()) != StateDegraded {
				return // poisoned or already recovered; nothing to probe for
			}
			h.noteProbe()
			if err := p.probe(); err == nil {
				h.recoverHealth()
				return
			}
			delay *= 2
			if delay > p.probeMax {
				delay = p.probeMax
			}
			t.Reset(delay)
		}
	}()
}

// probe checks whether the disk accepts writes again: a small canary
// file is written, fsynced and removed next to the log, then the log
// itself is healed (retrying the rollback of the append that degraded
// us and fsyncing the segment). Only when both succeed is the episode
// over — a canary that fits in a nearly-full disk must not resurrect a
// log whose own sync still fails.
func (p *walLogger) probe() error {
	canary := filepath.Join(p.dir, "probe.canary")
	f, err := p.fs.OpenFile(canary, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	buf := make([]byte, 8<<10)
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if rerr := p.fs.Remove(canary); err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	return p.log.Heal()
}

func (p *walLogger) close() error {
	p.stopProbes()
	p.wg.Wait()
	err := p.failed()
	if cerr := p.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// stopProbes tells the recovery loop to exit; safe to call repeatedly.
func (p *walLogger) stopProbes() {
	if p.done != nil {
		p.doneOnce.Do(func() { close(p.done) })
	}
}

// quiesce simulates the tail end of a process death for crash-recovery
// tests: it waits out any in-flight background snapshot (a real crash
// kills that goroutine; in-process it must drain before the directory
// is reopened) and releases the directory lock the way the kernel
// releases a dead process's flock. The hub must not be used afterwards.
func (p *walLogger) quiesce() {
	p.stopProbes()
	p.wg.Wait()
	p.log.DropLock()
	// The spill tier is an ephemeral cache the next open wipes anyway;
	// closing it here just releases the dead hub's file handles.
	if p.hub != nil && p.hub.backend != nil {
		p.hub.backend.Close()
	}
}
