// Opening a durable hub: Options, Open, and replay. What Open loads is
// snapload.go's; what it attaches once the log tail is replayed — the
// log writer, the snapshot producer, the degraded-mode probe loop — are
// wallog.go, snapwriter.go and degraded.go.
package hub

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/store"
	"entityid/internal/store/disk"
	"entityid/internal/wal"
)

// Options configures a durable hub.
type Options struct {
	// SnapshotEvery is the number of committed inserts between
	// background snapshots (and the accompanying log truncation), each
	// of which costs in proportion to those inserts, not to the hub;
	// 0 disables automatic snapshots — the log grows until SnapshotNow.
	SnapshotEvery int
	// SyncEvery, when positive, fsyncs the write-ahead log after every
	// N appends (group commit): the window of committed-but-volatile
	// records under a power-loss crash model is bounded by N, and every
	// ingest stream flushes the remainder at its flush epochs — when its
	// input runs empty and before its (or a batch's) results end.
	// 0 leaves durability between snapshots to the OS page cache.
	SyncEvery int
	// FS is the filesystem the durability stack performs every file
	// operation through; nil means the real one (wal.OS). Tests inject
	// internal/wal/errfs here to drive ENOSPC/EIO/fsync stalls into
	// chosen call points.
	FS wal.FS
	// Store selects the storage backend by name: "mem" (the default)
	// keeps every structure resident; "disk" spills cold cluster
	// records and cold pair matching tables to a tier under the data
	// directory, paging them back on demand. Empty means "mem".
	Store string
	// Backend, when non-nil, is used directly and overrides Store.
	// The hub takes ownership and closes it with Close.
	Backend store.Backend
	// HotClusterEntries bounds the disk backend's hot cluster tier (total
	// resident cluster members across records). Zero means the default.
	HotClusterEntries int

	// What only this package's tests vary, zero meaning the default
	// constant: the chunk payload budget of a snapshot run and of a
	// chunked AddSource's seed batches (wal.DefaultChunkPayload), the
	// degraded-mode probe loop's first delay and cap, and the disk
	// backend's resident pair federations.
	chunkBytes                    int
	probeBackoff, probeBackoffMax time.Duration
	hotPairs                      int
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

// backendFor opens the storage backend for a durable hub: opts.Backend
// if set, else the backend opts.Store names (memory is returned as nil —
// NewWithBackend supplies it). The caller must hold the directory lock:
// opening the disk backend wipes its spill tier.
func backendFor(dir string, opts Options) (store.Backend, error) {
	if opts.Backend != nil {
		return opts.Backend, nil
	}
	switch opts.Store {
	case "", "mem":
		return nil, nil
	case "disk":
		caps := store.Caps{HotClusterEntries: opts.HotClusterEntries, HotPairs: opts.hotPairs}
		if caps.HotClusterEntries <= 0 {
			caps.HotClusterEntries = defaultHotClusterEntries
		}
		if caps.HotPairs <= 0 {
			caps.HotPairs = defaultHotPairs
		}
		return disk.Open(filepath.Join(dir, storeTierDir), caps)
	default:
		return nil, fmt.Errorf("unknown storage backend %q (want mem or disk)", opts.Store)
	}
}

// Default recovery-probe backoff bounds: the first probe of the
// degraded-mode loop fires after the first, each failure doubles the
// delay, capped at the second.
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
	// The wall time of each phase of Open: reading and decoding the
	// snapshot's run files; rebuilding the relations and re-verifying the
	// pairwise federations; folding the restored matching tables into
	// the cluster store and reading it back; replaying the log tail. The
	// first three are zero when no snapshot was loaded.
	DecodeTime, RestoreTime, FoldTime, ReplayTime time.Duration
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
	b, err := backendFor(dir, opts)
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
		h, err = loadSnapshotSections(fsys, dir, man, b, info)
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
	// Sweep run files no committed manifest references — debris of
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
	start := time.Now()
	n, err := h.Replay(l, info.Watermark)
	if err != nil {
		return fail(fmt.Errorf("hub: open %s: %w", dir, err))
	}
	info.Replayed, info.ReplayTime = n, time.Since(start)
	info.LastSeq = l.LastSeq()
	probe, probeMax := opts.probeBackoff, opts.probeBackoffMax
	if probe <= 0 {
		probe = defaultProbeBackoff
	}
	if probeMax <= 0 {
		probeMax = defaultProbeBackoffMax
	}
	h.per = &walLogger{log: l, syncEvery: opts.SyncEvery, chunkBytes: opts.chunkBytes, hub: h}
	h.snap = &snapshotter{
		log: l, fs: fsys, dir: dir, every: opts.SnapshotEvery, chunkBytes: opts.chunkBytes,
		runItems: snapRunItems, prevMan: prevMan, hub: h,
	}
	h.prober = &prober{log: l, fs: fsys, dir: dir, base: probe, max: probeMax, done: make(chan struct{})}
	if prevMan != nil {
		// Seed last-snapshot age across restarts from the committed
		// manifest's mtime; byte/section figures stay zero — nothing was
		// written this session.
		if fi, serr := fsys.Stat(filepath.Join(dir, snapshotManifest)); serr == nil {
			h.snap.stats.Taken = fi.ModTime()
			h.snap.stats.Watermark = prevMan.Watermark
		}
	}
	return h, info, nil
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
// frame checks and the decoding of each record — the envelope, a schema,
// the tuples — run on a second goroutine (inside the log's replay
// callback), the mutations on the caller's, in log order. A tuple is read
// against its source's schema, so the decoder carries the schemas it has
// seen: the hub's own when Replay starts, then each add_source and
// source_begin record's as it passes — a source is always logged before
// its tuples. A record that fails to decode travels down the same channel
// as the good ones before it, so the error returned, the count and the
// hub's state on failure are those of a serial replay.
func (h *Hub) Replay(l *wal.Log, after uint64) (int, error) {
	if h.per != nil {
		return 0, fmt.Errorf("hub: replay into a hub that is already logging")
	}
	schemas := map[string]*schema.Schema{}
	h.mu.RLock()
	for _, s := range h.sources {
		schemas[s.name] = s.rel.Schema()
	}
	h.mu.RUnlock()
	// recs is as deep as a stream's channels, for the same reason: enough
	// for the decoder to run ahead of a slow apply, bounded in memory.
	recs := make(chan replayRecord, defaultStreamWindow)
	stop := make(chan struct{})
	var readErr error
	go func() {
		defer close(recs)
		readErr = l.Replay(after, func(rec wal.Record) error {
			d := decodeReplayRecord(rec, schemas)
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
// envelope, the schema it registers, the tuples it carries (an insert's
// one), or the error decoding any of them gave.
type replayRecord struct {
	seq    uint64
	env    wal.Envelope
	schema *schema.Schema
	tuples []relation.Tuple
	err    error
}

// decodeReplayRecord decodes one record against the schemas logged so
// far, adding the one it registers.
func decodeReplayRecord(rec wal.Record, schemas map[string]*schema.Schema) replayRecord {
	d := replayRecord{seq: rec.Seq}
	if d.env, d.err = wal.DecodeEnvelope(rec.Payload); d.err != nil {
		return d
	}
	var name string
	var tuples json.RawMessage
	switch env := d.env; env.Type {
	case wal.TypeAddSource:
		name, tuples = env.AddSource.Name, env.AddSource.Tuples
		d.schema, d.err = wal.DecodeSchema(env.AddSource.Schema)
	case wal.TypeSourceBegin:
		name = env.SourceBegin.Name
		d.schema, d.err = wal.DecodeSchema(env.SourceBegin.Schema)
	case wal.TypeSourceChunk:
		name, tuples = env.SourceChunk.Name, env.SourceChunk.Tuples
	case wal.TypeInsert:
		name = env.Insert.Source
	default:
		return d
	}
	if d.schema != nil {
		schemas[name] = d.schema
	}
	switch sch := schemas[name]; {
	case d.err != nil:
	case sch == nil:
		d.err = fmt.Errorf("no earlier record registers it")
	case d.env.Type == wal.TypeInsert:
		d.tuples = make([]relation.Tuple, 1)
		d.tuples[0], d.err = relation.ParseTupleJSON(sch, d.env.Insert.Tuple)
	case tuples != nil:
		d.tuples, d.err = relation.ParseTuplesJSON(sch, tuples)
	}
	if d.err != nil {
		d.err = fmt.Errorf("hub: %s record for source %q: %w", d.env.Type, name, d.err)
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
		rel := relation.New(d.schema)
		if err := seedTuples(rel, d.tuples); err != nil {
			return 0, err
		}
		return 1, h.AddSource(env.AddSource.Name, rel)
	case wal.TypeSourceBegin:
		*open = &pendingSource{name: env.SourceBegin.Name, rel: relation.New(d.schema), records: 1}
		return 0, nil
	case wal.TypeSourceChunk:
		p := *open
		if p == nil || p.name != env.SourceChunk.Name {
			return 0, fmt.Errorf("hub: source_chunk for %q without matching source_begin", env.SourceChunk.Name)
		}
		if err := seedTuples(p.rel, d.tuples); err != nil {
			return 0, err
		}
		p.records++
		if !env.SourceChunk.Final {
			return 0, nil
		}
		*open = nil
		return p.records, h.AddSource(p.name, p.rel)
	case wal.TypeLink:
		spec, err := specFromLinkRec(*env.Link)
		if err != nil {
			return 0, err
		}
		return 1, h.Link(spec)
	case wal.TypeInsert:
		_, err := h.Insert(env.Insert.Source, d.tuples[0])
		return 1, err
	default:
		return 0, fmt.Errorf("hub: unknown record type %q", env.Type)
	}
}

// seedTuples inserts a registration record's seed tuples into rel.
func seedTuples(rel *relation.Relation, ts []relation.Tuple) error {
	for i, t := range ts {
		if err := rel.Insert(t); err != nil {
			return fmt.Errorf("seed tuple %d: %w", i, err)
		}
	}
	return nil
}

// Close quiesces any in-flight background snapshot and the probe loop,
// closes the write-ahead log, and closes the storage backend. It
// returns the first background failure (a snapshot's, a group-commit
// fsync's), if any. A memory-only hub's close is a no-op (the memory
// backend has nothing to release).
func (h *Hub) Close() error {
	var err error
	if h.per != nil {
		h.quiesceBackground()
		err = h.health.failed()
		if cerr := h.per.log.Close(); err == nil {
			err = cerr
		}
	}
	if h.backend != nil {
		if cerr := h.backend.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// quiesceBackground stops the probe loop and waits out the durable
// hub's goroutines — the snapshot writer first: its failure can still
// start a probe loop, which the closed stop channel ends at once.
func (h *Hub) quiesceBackground() {
	h.prober.stopProbes()
	h.snap.wg.Wait()
	h.prober.wg.Wait()
}
