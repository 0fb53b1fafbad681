// Opening a durable hub: Options, Open, and the read of the log tail
// into the relations. How Open loads a snapshot, builds the pairs and
// folds the clusters is snapload.go's; what it attaches once the hub is
// rebuilt — the log writer, the snapshot producer, the degraded-mode
// probe loop — are wallog.go, snapwriter.go and degraded.go.
package hub

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
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
	// keeps every cluster record resident; "disk" spills cold cluster
	// records to a tier under the data directory, paging them back on
	// demand. Pairs' matching results stay resident on both. Empty means
	// "mem".
	Store string
	// Backend, when non-nil, is used directly and overrides Store.
	// The hub takes ownership and closes it with Close.
	Backend store.Backend
	// HotClusterEntries bounds the disk backend's hot cluster tier (total
	// resident cluster members across records). Zero means the default.
	HotClusterEntries int

	// What only this package's tests vary, zero meaning the default
	// constant: the chunk payload budget of a snapshot segment's runs and of a
	// chunked AddSource's seed batches (wal.DefaultChunkPayload), and the
	// degraded-mode probe loop's first delay and cap.
	chunkBytes                    int
	probeBackoff, probeBackoffMax time.Duration
}

// defaultHotClusterEntries is the disk backend's default hot-tier budget.
const defaultHotClusterEntries = 1 << 16

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
		caps := store.Caps{HotClusterEntries: opts.HotClusterEntries}
		if caps.HotClusterEntries <= 0 {
			caps.HotClusterEntries = defaultHotClusterEntries
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
	// LogBytes counts the log bytes the read verified: every good record
	// of every segment, the watermark's included.
	LogBytes int64
	// TailDamage is non-empty when a torn or corrupt log tail was
	// detected (CRC/length/sequence check) and recovery stopped at the
	// last good record.
	TailDamage string
	// The wall time of each phase of Open, in the order they run: reading
	// and decoding the snapshot's segment files into the relations (zero with
	// no snapshot); reading the log — every frame cut and verified, the
	// tail past the watermark decoded — into the relations; building and
	// verifying every pair's matching result, the snapshot's and the tail's
	// links alike; folding the built matching tables into the cluster
	// store and reading it back.
	DecodeTime, ReplayTime, RestoreTime, FoldTime time.Duration
	// Images and Pairings count what the pair build built: one image per
	// source and knowledge its links give it, then one pairing per link
	// over two of them.
	Images, Pairings int
}

// Open opens (or creates) a durable hub rooted at dir: it loads the
// snapshot the manifest names if one exists, reads the write-ahead log
// tail past the snapshot watermark into the same relations, builds every
// pair's matching result once and folds the clusters once (snapload.go), and
// attaches the logger so subsequent mutations are persisted. The
// returned hub must be Closed.
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
	// snapshot temp — so nothing may be read or removed yet. The log's
	// open lists its segments and reads none of them: readTail does.
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
		return nil, nil, fmt.Errorf("hub: open %s: %w", dir, err)
	}

	info := &RecoveryInfo{}
	r := &recovery{h: NewWithBackend(b)}
	var prevMan *snapManifest
	switch man, err := readManifest(fsys, dir); {
	case err == nil:
		if err := r.loadSnapshot(fsys, dir, man, info); err != nil {
			return fail(err)
		}
		prevMan = man
		info.FromSnapshot = true
		info.Watermark = man.Watermark
	case !os.IsNotExist(err):
		return fail(err)
	}
	// Sweep segment files no committed manifest references — debris of
	// snapshot attempts a crash interrupted before their manifest
	// rename.
	if err := sweepSections(fsys, dir, prevMan); err != nil {
		return fail(err)
	}

	// Cross-check the log against the snapshot before trusting either: a
	// partially restored directory (lost segments, lost snapshot) would
	// otherwise replay around a hole — or log new commits at sequence
	// numbers a later replay skips. Fail closed instead. The segment names
	// answer where the log starts before it is read; where it ends, the
	// read answers.
	switch {
	case info.FromSnapshot && l.OldestSeq() > info.Watermark+1:
		return fail(fmt.Errorf("write-ahead log starts at record %d but the snapshot covers only through %d: log records are missing",
			l.OldestSeq(), info.Watermark))
	case !info.FromSnapshot && l.LastSeq() > 0 && l.OldestSeq() > 1:
		return fail(fmt.Errorf("write-ahead log starts at record %d with no snapshot covering the truncated prefix",
			l.OldestSeq()))
	}
	start := time.Now()
	n, logBytes, readErr := r.readTail(l, info.Watermark)
	info.Replayed, info.LogBytes, info.ReplayTime = n, logBytes, time.Since(start)
	if d := l.Damage(); d != nil {
		info.TailDamage = d.Error()
	}
	if readErr == nil && info.FromSnapshot && l.LastSeq() < info.Watermark {
		return fail(fmt.Errorf("write-ahead log ends at record %d but the snapshot covers through %d: log records are missing",
			l.LastSeq(), info.Watermark))
	}
	if err := r.finish(info, readErr); err != nil {
		return fail(err)
	}
	info.LastSeq = l.LastSeq()
	phaseDecode.Set(int64(info.DecodeTime))
	phaseReplay.Set(int64(info.ReplayTime))
	phaseRestore.Set(int64(info.RestoreTime))
	phaseFold.Set(int64(info.FoldTime))
	h := r.h
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
		segItems: snapSegItems, prevMan: prevMan, hub: h,
	}
	lastOpened.Store(h.snap)
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

// readTail reads the log — every record verified, wal.Log.Recover's one
// pass — and the records past the watermark into the hub, in log order,
// before the logger is attached:
//   - a source_begin record and the run records of its seed tuples
//     register the source, at the run's last record. A group the log
//     abandons mid-way — its writer crashed or its append failed between
//     records, so the registration was never acknowledged — is discarded,
//     exactly like a torn single record;
//   - link resolves and validates its spec where it stands and registers
//     the pair with no table yet, its cut at the two sides' lengths there;
//   - any other run record is an insert, a run of one: its source admits
//     the tuple (shape, candidate keys) and keeps it, and the record is
//     noted as the tuple's arrival.
//
// Nothing is matched or folded here: finish builds each pair once over
// the relations as read. It returns the number of records applied — a
// group's at its last record — the log bytes verified, and the first
// record that failed, as "record k: why"; the records before it are in
// the hub.
//
// The read is a pipeline of three goroutines, each stage a batch of
// records at a time, so that no stage waits on another's work: the log's
// read cuts and verifies the frames of a window; the decoder decodes each
// record — a run record's tuples straight into cell blocks of its
// source's (relation.TupleBlocks) by the one run reader (wal.CutRun), a
// link or a schema by the envelope decoder — and the caller's goroutine
// applies them, in log order: a relation takes each row, its cells
// copied and its strings left in the decoder's string blocks, which the
// relation adopts. A
// tuple is read against its source's schema, so the decoder carries the
// schemas it has seen: the hub's own when the read starts, then each
// source_begin record's as it passes — a source is always logged before
// its tuples. A record that fails to decode travels down the same channel
// as the good ones before it and ends the read, so the failure and the
// hub's state are those of a read one record at a time.
func (r *recovery) readTail(l *wal.Log, after uint64) (int, int64, error) {
	dec := &tailDecoder{schemas: map[string]*decSource{}}
	for _, s := range r.h.sources {
		src := &decSource{name: s.name, sch: s.rel.Schema()}
		src.blocks.Skip(s.rel.Len())
		dec.schemas[s.name] = src
	}
	// Each stage runs ahead of the next by a bounded number of batches, one
	// channel operation per batch: the read two windows, the decoder
	// sixteen batches of a stream's window — a thousand records, enough
	// to ride out the stalls of three stages sharing the cores. Whichever
	// stage fails first closes stop, and the stages before it end.
	frames := make(chan []wal.Record, 2)
	decoded := make(chan []replayRecord, 16)
	stop := make(chan struct{})
	var once sync.Once
	halt := func() { once.Do(func() { close(stop) }) }
	var logBytes int64
	var readErr error
	go func() {
		defer close(frames)
		logBytes, readErr = l.Recover(after, func(recs []wal.Record) error {
			select {
			case frames <- recs:
				return nil
			case <-stop:
				return errReplayStopped
			}
		})
	}()
	go func() {
		defer close(decoded)
		// The range ends only when the read has returned.
		for recs := range frames {
			for len(recs) > 0 {
				n := min(len(recs), defaultStreamWindow)
				batch, ok := dec.decode(recs[:n])
				recs = recs[n:]
				select {
				case decoded <- batch:
				case <-stop:
					ok = false
				}
				if !ok {
					halt() // the application fails here; read no further
					for range frames {
					}
					return
				}
			}
		}
	}()
	n := 0
	var open *pendingSource
	var err error
	// The range ends only when the decoder has returned, and the decoder
	// only when the read has, so no goroutine (and no log read) outlives
	// the read, failed or not.
	for batch := range decoded {
		for _, d := range batch {
			if err != nil {
				break // failed: drain what the decoder had in flight
			}
			applied := 0
			if d.err == nil {
				applied, d.err = r.apply(d, &open)
			}
			if d.err != nil {
				err = fmt.Errorf("record %d: %w", d.seq, d.err)
				halt()
				break
			}
			n += applied
		}
	}
	if err == nil {
		err = readErr
	}
	// A group still open at the end of the log is an abandoned,
	// unacknowledged registration; its records were never counted and
	// nothing of it reached the hub.
	return n, logBytes, err
}

// errReplayStopped ends the log read once a later stage has failed; the
// failure itself is what readTail returns.
var errReplayStopped = errors.New("hub: replay stopped")

// replayRecord is one log record decoded ahead of its application: the
// source it names, the schema a source_begin registers, a run record's
// tuples — rows lo to hi of its source's decoded rows — and whether its
// run continues, the link it makes, or the error decoding any of them
// gave.
type replayRecord struct {
	seq    uint64
	name   string
	schema *schema.Schema
	run    bool
	src    *decSource
	lo, hi int
	rows   relation.Rows
	more   bool
	link   *wal.LinkRec
	err    error
}

// decSource is a source as the decoder knows it: its name, its schema
// and the rows decoded for it so far, laid out from the row its relation
// holds next when the read starts, so that the relation takes them where
// they lie.
type decSource struct {
	name   string
	sch    *schema.Schema
	blocks relation.TupleBlocks
}

// tailDecoder decodes records against the schemas logged so far, each
// source's tuples into its own cell blocks. A batch of decoded records
// is a capped window of a shared slice the decoder only ever appends to
// — a new one started when the next would not fit — so a window handed
// over is never written again, and a slice is one allocation for a
// thousand records, not one a batch.
type tailDecoder struct {
	schemas map[string]*decSource
	recs    []replayRecord
}

// sliceLen is how many decoded records the decoder asks one allocation
// for.
const sliceLen = 1024

// decode decodes a batch of records, and reports false when the last
// failed: the batch ends there.
func (dec *tailDecoder) decode(recs []wal.Record) ([]replayRecord, bool) {
	if cap(dec.recs)-len(dec.recs) < len(recs) {
		dec.recs = make([]replayRecord, 0, max(sliceLen, len(recs)))
	}
	start, ok := len(dec.recs), true
	for _, rec := range recs {
		d := dec.record(rec)
		if dec.recs = append(dec.recs, d); d.err != nil {
			ok = false
			break
		}
	}
	// Each run's rows are read as the batch ends, so that the runs of a
	// source in one batch read its string blocks as one, and a relation
	// adopts a block once a batch, not once a record.
	batch := dec.recs[start:len(dec.recs):len(dec.recs)]
	for i := range batch {
		if d := &batch[i]; d.src != nil {
			d.rows = d.src.blocks.Rows().Slice(d.lo, d.hi)
		}
	}
	return batch, ok
}

// record decodes one record, adding the schema a source_begin registers.
func (dec *tailDecoder) record(rec wal.Record) replayRecord {
	d := replayRecord{seq: rec.Seq, run: wal.IsRun(rec.Payload)}
	if !d.run {
		env, err := wal.DecodeEnvelope(rec.Payload)
		switch {
		case err != nil:
			d.err = err
		case env.Type == wal.TypeSourceBegin:
			d.name = env.SourceBegin.Name
			if d.schema, d.err = wal.DecodeSchema(env.SourceBegin.Schema); d.err != nil {
				d.err = fmt.Errorf("hub: source_begin record for source %q: %w", d.name, d.err)
			} else {
				dec.schemas[d.name] = &decSource{name: d.name, sch: d.schema}
			}
		default:
			d.link = env.Link
		}
		return d
	}
	run, err := wal.CutRun(rec.Payload)
	if err != nil {
		d.err = err
		return d
	}
	src, ok := dec.schemas[string(run.Source)]
	if !ok {
		d.err = fmt.Errorf("hub: run record for source %q: no earlier record registers it", run.Source)
		return d
	}
	d.name, d.more, d.src, d.lo = src.name, run.More, src, src.blocks.Len()
	if _, err = run.Tuples(&src.blocks, src.sch); err != nil {
		d.err = fmt.Errorf("hub: run record for source %q: %w", src.name, err)
	}
	d.hi = src.blocks.Len()
	return d
}

// pendingSource buffers an in-flight source registration during the read:
// its schema and the seed rows its run has brought so far, a record's at
// a time. records counts the group's log records, applied to the total
// only when the group commits.
type pendingSource struct {
	name    string
	schema  *schema.Schema
	rows    []relation.Rows
	records int
}

// apply reads one decoded record into the hub, returning how many log
// records it committed (a registration's at its run's last record). open
// threads the registration state machine between records.
func (r *recovery) apply(d replayRecord, open **pendingSource) (int, error) {
	p := *open
	if p != nil && (!d.run || d.name != p.name) {
		// Anything but the group's own run aborts it: the group's writer saw
		// an append fail and the registration was rejected. Forget the
		// partial source; nothing of it was committed.
		p, *open = nil, nil
	}
	switch {
	case d.schema != nil:
		*open = &pendingSource{name: d.name, schema: d.schema, records: 1}
		return 0, nil
	case d.link != nil:
		spec, err := specFromLinkRec(*d.link)
		if err != nil {
			return 0, err
		}
		return 1, r.link(spec, linkCut{seq: d.seq})
	case p != nil:
		p.rows = append(p.rows, d.rows)
		if p.records++; d.more {
			return 0, nil
		}
		*open = nil
		rel := relation.New(p.schema)
		if err := rel.InsertAll(p.rows...); err != nil {
			return 0, fmt.Errorf("hub: source %q: seed tuple %d: %w", p.name, rel.Len(), err)
		}
		return p.records, r.addSource(p.name, rel)
	case d.more || d.rows.Len() != 1:
		return 0, fmt.Errorf("hub: run record for source %q outside a registration: an insert is one tuple in one record", d.name)
	default:
		return 1, r.insert(d.name, d.rows, d.seq)
	}
}

// insert has a source admit a logged tuple, rows' one, and take it — its
// cells copied, its strings left where the decoder cut them — with the
// checks and the errors of a live insert's admission, and notes the
// record as the tuple's arrival.
func (r *recovery) insert(source string, rows relation.Rows, seq uint64) error {
	si, ok := r.h.byName[source]
	if !ok {
		return fmt.Errorf("hub: unknown source %q", source)
	}
	rel := r.h.sources[si].rel
	r.row = rows.TupleInto(r.row, 0)
	adm, err := rel.Admit(r.row)
	if err == nil {
		err = checkUTF8(rel.Schema(), r.row)
	}
	if err == nil {
		err = rel.KeepAdmitted(adm, rows, 0)
	}
	if err != nil {
		return fmt.Errorf("hub: source %q: %w", source, err)
	}
	r.arrived[si].seqs = append(r.arrived[si].seqs, seq)
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
		lastOpened.CompareAndSwap(h.snap, nil)
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
