// Package wal is the hub's write-ahead log: the durability substrate
// that lets `cmd/entityidd` survive a process crash with its global
// entity clusters intact. Every committed hub mutation — source
// registration, pair link, tuple insert — is appended as one
// length-delimited, CRC-guarded NDJSON record with a monotonically
// increasing sequence number, and recovery reads the log tail on top of
// the latest snapshot.
//
// # Frame format
//
// A record occupies exactly one line:
//
//	w1 <seq> <crc32c-hex> <len> <payload>\n
//
// where seq is decimal, crc32c is the 8-hex-digit Castagnoli checksum
// of the payload bytes, len is the decimal payload length, and the
// payload is JSON (which never contains a raw newline). The redundant
// length and checksum make torn tails detectable: a crashed writer
// leaves at most one half-written final line, which fails the length or
// CRC check, and recovery stops at the last good record instead of
// propagating garbage.
//
// # Segments
//
// A Log is a directory of segment files named wal-<firstseq>.log.
// Appends go to the newest segment; Rotate starts a fresh segment so a
// snapshot at watermark W can later delete every segment whose records
// are all ≤ W (RemoveThrough) without copying the live tail. Sequence
// numbers are contiguous across segments, so recovery detects lost
// records as sequence jumps.
//
// # Recovery
//
// Open takes the directory lock and lists the segments; it reads none of
// them. Recover then reads the log once, a bounded window at a time
// (FrameCutter), cutting each frame in place and verifying it — CRC,
// canonical form, sequence contiguity — as it hands the records past a
// watermark to its caller. At the first sign of damage it truncates that
// segment to its last good record, renames any later segments out of the
// way (suffix ".dead": unreachable records are preserved for forensics,
// never silently deleted) and records the damage for Damage(). Only then
// does the newest segment open for append.
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	magic = "w1"

	segPrefix = "wal-"
	segSuffix = ".log"
)

// maxPayload bounds a single record; a declared length beyond it is
// treated as corruption rather than an allocation request. Jumbo
// logical payloads — an AddSource seed relation, a hub snapshot segment — are
// split across continuation frames (a run record marked "more", run.go)
// so no single
// frame ever needs to approach the cap. It is a variable only so tests
// can lower it (SetFrameCapForTesting) and exercise the multi-chunk
// paths without generating hundreds of megabytes.
var maxPayload = 256 << 20

// DefaultChunkPayload is the target payload size for one continuation
// chunk of a jumbo logical record (snapshot section tuples, AddSource
// seed chunks): large enough to amortise the per-frame overhead, small
// enough that encode/decode never buffers more than a sliver of the
// frame cap.
const DefaultChunkPayload = 8 << 20

// FrameCap returns the current single-frame payload limit.
func FrameCap() int { return maxPayload }

// SetFrameCapForTesting lowers the frame cap and returns a restore
// function, so tests can drive state past the "snapshot ceiling"
// without building a quarter-gigabyte hub. Not safe for use while logs
// are being written concurrently.
func SetFrameCapForTesting(n int) (restore func()) {
	old := maxPayload
	maxPayload = n
	return func() { maxPayload = old }
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one decoded log entry.
type Record struct {
	Seq     uint64
	Payload []byte
}

// CorruptError reports a damaged log region: everything before Offset
// decoded cleanly, nothing after it is trusted.
type CorruptError struct {
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt record at offset %d: %s", e.Offset, e.Reason)
}

// EncodeRecord frames a payload. It fails on oversized payloads and on
// payloads containing a raw newline (JSON encoders never emit one).
func EncodeRecord(seq uint64, payload []byte) ([]byte, error) {
	// magic, two decimal fields of at most 20 digits, 8 hex digits, four
	// spaces and the newline.
	return appendRecord(make([]byte, 0, len(magic)+20+8+20+5+len(payload)), seq, payload)
}

// appendRecord appends to frame the payload framed under seq, as
// EncodeRecord frames it.
func appendRecord(frame []byte, seq uint64, payload []byte) ([]byte, error) {
	if len(payload) > maxPayload {
		return nil, fmt.Errorf("wal: payload of %d bytes exceeds the %d-byte record limit", len(payload), maxPayload)
	}
	if bytes.IndexByte(payload, '\n') >= 0 {
		return nil, fmt.Errorf("wal: payload contains a raw newline")
	}
	crc := crc32.Checksum(payload, castagnoli)
	frame = append(frame, magic...)
	frame = append(frame, ' ')
	frame = strconv.AppendUint(frame, seq, 10)
	frame = append(frame, ' ')
	for shift := 28; shift >= 0; shift -= 4 {
		frame = append(frame, "0123456789abcdef"[crc>>shift&0xf])
	}
	frame = append(frame, ' ')
	frame = strconv.AppendUint(frame, uint64(len(payload)), 10)
	frame = append(frame, ' ')
	frame = append(frame, payload...)
	return append(frame, '\n'), nil
}

// DecodeRecord decodes data holding exactly one framed record (the
// snapshot file reuses the WAL frame for its checksum); the record's
// payload aliases data.
func DecodeRecord(data []byte) (Record, error) {
	sc := NewFrameCutter(data)
	rec, _, err := sc.Next()
	if err != nil {
		return Record{}, err
	}
	if _, _, err := sc.Next(); err != io.EOF {
		return Record{}, fmt.Errorf("wal: trailing data after single-record frame")
	}
	return rec, nil
}

// parseFrame parses one line (without its newline); a non-empty return
// string is the corruption reason. Only canonical frames are valid: a
// frame that parses but was not byte-for-byte produced by EncodeRecord
// (a leading zero or a sign in a decimal field, upper-case hex) is
// treated as corruption, so decoding and re-encoding is always the
// identity on accepted bytes. The record's payload aliases line.
func parseFrame(line []byte) (Record, string) {
	mg, rest, ok := bytes.Cut(line, []byte{' '})
	if !ok || string(mg) != magic {
		return Record{}, "bad magic"
	}
	seqF, rest, ok := bytes.Cut(rest, []byte{' '})
	if !ok {
		return Record{}, "missing checksum field"
	}
	seq, ok := decimal(seqF)
	if !ok || seq == 0 {
		return Record{}, "bad sequence number"
	}
	crcF, rest, ok := bytes.Cut(rest, []byte{' '})
	if !ok || len(crcF) != 8 {
		return Record{}, "bad checksum field"
	}
	var wantCRC uint32
	upper := false
	for _, c := range crcF {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c, upper = c-('A'-10), true
		default:
			return Record{}, "bad checksum field"
		}
		wantCRC = wantCRC<<4 | uint32(c)
	}
	lenF, payload, ok := bytes.Cut(rest, []byte{' '})
	n, nOK := decimal(lenF)
	if !nOK || n > uint64(maxPayload) {
		return Record{}, "bad length field"
	}
	if n > 0 && !ok {
		return Record{}, "missing payload"
	}
	if uint64(len(payload)) != n {
		return Record{}, fmt.Sprintf("payload length %d, frame declares %d", len(payload), n)
	}
	if crc32.Checksum(payload, castagnoli) != wantCRC {
		return Record{}, "checksum mismatch"
	}
	// A decimal field takes no sign, prefix or underscore; what is left
	// of canonical form is the leading zero, the case of the hex digits
	// and the space an empty payload still follows.
	if seqF[0] == '0' || (lenF[0] == '0' && len(lenF) > 1) || !ok || upper {
		return Record{}, "non-canonical frame"
	}
	return Record{Seq: seq, Payload: payload}, ""
}

// decimal reads b as one or more ASCII digits and nothing else, and
// reports whether they spell a number a uint64 holds.
func decimal(b []byte) (uint64, bool) {
	var v uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, len(b) > 0
}

// ErrLogUnusable marks the sticky append-poison state: a failed append
// could not be rolled back, so the segment tail holds garbage and every
// further append is refused until Heal succeeds. It is classified as a
// persistent storage failure by the hub's degraded-mode machinery.
var ErrLogUnusable = fmt.Errorf("wal: log unusable until healed")

// errNotRecovered refuses a write to a log Recover has not read.
var errNotRecovered = errors.New("wal: the log takes no write before Recover")

// Log is a segmented on-disk record log. All methods are safe for
// concurrent use; Recover must run, once, before the first Append of a
// session.
// A Log holds an exclusive flock on the directory for its lifetime, so
// two writers can never interleave frames in one log.
type Log struct {
	// rotMu serialises the changes to the set of segments — Rotate and
	// RemoveThrough — which do their file-system work outside mu, so an
	// append never waits on a rotation's fsync or a truncation's unlinks.
	//entitylint:lock rank=90
	rotMu sync.Mutex
	//entitylint:lock rank=100
	mu     sync.Mutex
	dir    string
	fs     FS       // file-system seam (OS in production, errfs in chaos tests)
	f      File     // active segment; nil until Recover
	lock   File     // flock'd wal.lock
	firsts []uint64 // the segments Open found, until Recover reads them
	seq    uint64   // last durable sequence number
	oldest uint64   // first sequence number still present in segments
	first  uint64   // first sequence number of the active segment (its name)
	off    int64    // byte length of the active segment's good prefix
	// syncedSeq/syncedOff track the last record known forced to stable
	// storage (updated by Sync, Rotate and Close): the prefix a
	// power-loss crash model may assume survives. Records beyond them
	// live only in the page cache.
	syncedSeq uint64
	syncedOff int64
	// past is the bytes of the records past the after Recover was given,
	// read by it or appended since (Past).
	past atomic.Int64
	// closing is the segment a Rotate swapped out and has not yet seen
	// durable, and closingLast its last record: Rotate syncs it outside
	// mu, and a Sync or Close in the meantime syncs it too. A sync that
	// failed leaves it here for the next Rotate to retry.
	closing     File
	closingLast uint64
	damage      *CorruptError
	closed      bool
	// fail is the sticky fatal error set when a failed append leaves
	// the segment in a state that could not be rolled back; every later
	// append returns it rather than stranding acknowledged records
	// behind garbage bytes.
	fail error
	// frames is the append buffer, reused while it stays small.
	frames []byte
}

// framesKept is the largest append buffer a log keeps between appends:
// a run of inserts fits many times over, and a source registration's
// larger records are framed and then let go.
const framesKept = 256 << 10

// lockDir takes the exclusive advisory lock. flock locks belong to the
// open file description, so they exclude a second opener in the same
// process as well as in another one, and the kernel releases them when
// the process dies — a crashed writer never wedges its directory.
func lockDir(fsys FS, dir string) (File, error) {
	lf, err := fsys.OpenFile(filepath.Join(dir, "wal.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := syscall.Flock(int(lf.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lf.Close()
		return nil, fmt.Errorf("wal: %s is locked by another live writer: %w", dir, err)
	}
	return lf, nil
}

func segName(first uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix)
}

// parseSegName extracts the first-sequence ordinal from a segment file
// name.
func parseSegName(name string) (uint64, bool) {
	if len(name) != len(segPrefix)+20+len(segSuffix) ||
		name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// segments lists the segment first-sequence ordinals in dir, sorted.
func segments(fsys FS, dir string) ([]uint64, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var firsts []uint64
	for _, e := range ents {
		if first, ok := parseSegName(e.Name()); ok {
			firsts = append(firsts, first)
		}
	}
	sort.Slice(firsts, func(a, b int) bool { return firsts[a] < firsts[b] })
	return firsts, nil
}

// Open opens (creating if necessary) the log in dir using the real OS
// file system. OpenFS injects a different one (fault injection).
func Open(dir string) (*Log, error) { return OpenFS(dir, OS) }

// OpenFS opens the log in dir over an injectable file system: it takes
// the directory lock and lists the segments, whose names fix the oldest
// sequence number the log holds and the floor of its last. It reads no
// record: Recover does, once, and only then does the log take appends.
func OpenFS(dir string, fsys FS) (*Log, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	lock, err := lockDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	firsts, err := segments(fsys, dir)
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, fs: fsys, lock: lock, firsts: firsts, oldest: 1}
	if len(firsts) > 0 {
		// Only the FIRST remaining segment pins the sequence floor via its
		// name (its predecessors were legitimately truncated away by a
		// snapshot).
		l.oldest = firsts[0]
		l.seq = max(firsts[0], 1) - 1
	}
	return l, nil
}

// preserveSegments renames segments that recovery can no longer reach
// out of the way (suffix ".dead": preserved for forensics, never
// silently deleted). A rename failure does not abort recovery — the
// writer still resumes safely from the last good record — but it is
// surfaced in the returned damage note, because the unreachable records
// were NOT preserved out of the way: the stale file stays in place, is
// re-detected (and the rename retried) on every subsequent open, and
// Rotate refuses to append over it.
func preserveSegments(fsys FS, dir string, firsts []uint64) (note string) {
	for _, later := range firsts {
		dead := filepath.Join(dir, segName(later))
		if err := fsys.Rename(dead, dead+".dead"); err != nil {
			note += fmt.Sprintf("; preserving %s as .dead failed: %v", segName(later), err)
		}
	}
	return note
}

// recoverWindow is how many bytes Recover reads from a segment at a time,
// unless the frame cap or the segment is smaller; a frame longer than the
// window grows the one that holds it.
const recoverWindow = 256 << 10

// Recover reads the log once, segment by segment in order, verifying every
// record and handing those with sequence number > after to fn, in order:
// the records cut from each window read, which fn may keep: no window is
// read into twice. An error from fn ends the read and is returned,
// and the log takes no append. The read stops at the first sign of damage
// — a frame that fails its checks, a record that does not continue the
// one before it, a later segment that does not continue the one before
// it — and, the records before it handed over, truncates that segment to
// its last good record, renames any later segments out of the way (.dead)
// and records the damage for Damage(). The writer then resumes after the
// last good record. fn may be nil. Recover returns the bytes of the good
// records it read.
func (l *Log) Recover(after uint64, fn func([]Record) error) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.f != nil {
		return 0, fmt.Errorf("wal: recover of a closed or recovered log")
	}
	active := l.oldest
	var read, truncateTo int64 = 0, -1
	for i, first := range l.firsts {
		// A later segment that does not continue the previous one's last
		// sequence number means committed records were lost — that is
		// damage, never silently absorbed.
		if i > 0 && first != l.seq+1 {
			reason := fmt.Sprintf("%s: segment starts at sequence %d, expected %d (lost records)",
				segName(first), first, l.seq+1)
			l.damage = &CorruptError{Reason: reason + preserveSegments(l.fs, l.dir, l.firsts[i:])}
			break
		}
		active = first
		last, good, dmg, err := l.recoverSegment(first, after, fn)
		if err != nil {
			return read, err
		}
		l.seq, read = last, read+good
		if dmg != nil {
			dmg.Reason += preserveSegments(l.fs, l.dir, l.firsts[i+1:])
			l.damage = dmg
			truncateTo = good
			break
		}
	}
	l.first = active
	path := filepath.Join(l.dir, segName(active))
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return read, fmt.Errorf("wal: %w", err)
	}
	if truncateTo >= 0 {
		if err := f.Truncate(truncateTo); err != nil {
			f.Close()
			return read, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return read, fmt.Errorf("wal: %w", err)
	}
	l.off = fi.Size()
	l.f, l.firsts = f, nil
	// Everything that survived the read is on disk by definition; treat
	// it as the synced baseline for this session.
	l.syncedSeq, l.syncedOff = l.seq, l.off
	return read, nil
}

// recoverSegment reads one segment with readFrames.
func (l *Log) recoverSegment(first, after uint64, fn func([]Record) error) (uint64, int64, *CorruptError, error) {
	f, err := l.fs.Open(filepath.Join(l.dir, segName(first)))
	if err != nil {
		return 0, 0, nil, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	// A segment smaller than the window is read whole, in one read that
	// comes up short of its buffer.
	window := min(recoverWindow, maxPayload)
	if fi, err := f.Stat(); err == nil {
		window = int(min(int64(window), fi.Size()+1))
	}
	return readFrames(NewFrameReader(f, window), segName(first), l.seq, after, &l.past, fn)
}

// readFrames reads the frames of the segment name. prevSeq is the last
// sequence number of the preceding segment; a record that does not
// continue the one before it — the first one, prevSeq — is damage (lost
// records). The records past after go to fn a window at a time, their
// frames' bytes added to past. It
// returns the last good seq, the byte offset past the last good record,
// and any damage found, naming the segment; a read error, naming it too,
// or fn's error as it is.
func readFrames(c *FrameCutter, name string, prevSeq, after uint64, past *atomic.Int64, fn func([]Record) error) (uint64, int64, *CorruptError, error) {
	var batch []Record
	deliver := func() error {
		if len(batch) == 0 || fn == nil {
			return nil
		}
		err := fn(batch)
		mReplayRecords.Add(uint64(len(batch)))
		batch = make([]Record, 0, cap(batch))
		return err
	}
	last, kept := prevSeq, int64(0)
	defer func() { past.Add(kept) }()
	for {
		good, reads := c.Offset(), c.reads
		rec, frame, err := c.Next()
		if c.reads != reads {
			// A window was read: what the one before held goes first.
			if err := deliver(); err != nil {
				return 0, 0, nil, err
			}
		}
		dmg, corrupt := err.(*CorruptError)
		switch {
		case err == io.EOF, corrupt:
		case err != nil:
			return 0, 0, nil, fmt.Errorf("wal: read %s: %w", name, err)
		case rec.Seq != last+1:
			dmg = &CorruptError{Offset: good, Reason: fmt.Sprintf("sequence jump: %d after %d", rec.Seq, last)}
		default:
			last = rec.Seq
			if rec.Seq > after {
				batch = append(batch, rec)
				kept += int64(len(frame))
			}
			continue
		}
		if err := deliver(); err != nil {
			return 0, 0, nil, err
		}
		if dmg != nil {
			dmg.Reason = name + ": " + dmg.Reason
		}
		return last, good, dmg, nil
	}
}

// Damage reports the torn/corrupt tail Recover dropped, if any.
func (l *Log) Damage() *CorruptError {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.damage
}

// LastSeq returns the last durable sequence number: before Recover, the
// floor the oldest segment's name sets.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// OldestSeq returns the first sequence number the log's segments can
// still hand back (the name of the oldest segment found at Open). A
// recovery coordinator must check it against its snapshot watermark: a
// floor beyond watermark+1 means records were lost with the segments
// that held them.
func (l *Log) OldestSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.oldest
}

// Past returns the bytes of the records past the after Recover was given:
// those it read and every append since. It takes no lock; under a lock
// that orders the appends, it is where they left the log.
func (l *Log) Past() int64 { return l.past.Load() }

// Append frames the payload under the next sequence number and writes
// it to the active segment. The record is durable in the file-system
// cache when Append returns; call Sync to force it to stable storage.
func (l *Log) Append(payload []byte) (uint64, error) { return l.AppendAll(payload) }

// AppendAll frames the payloads under the next sequence numbers, in
// order, and writes them to the active segment in one write — all of
// them or none: a payload that cannot be framed fails it before anything
// is written, and a failed or short write rolls the segment back whole,
// as Append's does. It returns the last record's sequence number. The
// records are in the file-system cache when it returns, as Append's
// record is.
func (l *Log) AppendAll(payloads ...[]byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: append to closed log")
	}
	if l.f == nil {
		return 0, errNotRecovered
	}
	if l.fail != nil {
		mAppendErrors.Inc()
		return 0, l.fail
	}
	if len(payloads) == 0 {
		return l.seq, nil
	}
	frame := l.frames[:0]
	for i, p := range payloads {
		var err error
		if frame, err = appendRecord(frame, l.seq+1+uint64(i), p); err != nil {
			return 0, err
		}
	}
	if cap(frame) <= framesKept {
		l.frames = frame
	} else {
		l.frames = nil
	}
	start := time.Now()
	if n, err := l.f.Write(frame); err != nil {
		// A short write (disk full, I/O error) may have landed partial
		// frame bytes. Roll the segment back to the last good record so
		// a later successful append cannot strand acknowledged records
		// behind garbage that recovery would truncate away. If the
		// rollback itself fails, the log is poisoned: all further
		// appends are refused.
		if n > 0 {
			if terr := l.f.Truncate(l.off); terr != nil {
				l.fail = fmt.Errorf("%w: append failed (%w) and rollback failed (%v)", ErrLogUnusable, err, terr)
				mPoisonTotal.Inc()
				mAppendErrors.Inc()
				return 0, l.fail
			}
		}
		mAppendErrors.Inc()
		return 0, fmt.Errorf("wal: %w", err)
	}
	l.off += int64(len(frame))
	l.past.Add(int64(len(frame)))
	l.seq += uint64(len(payloads))
	mAppendTotal.Add(uint64(len(payloads)))
	mAppendBytes.Add(uint64(len(frame)))
	mAppendSeconds.ObserveShares(time.Since(start), len(payloads))
	return l.seq, nil
}

// Rotate closes the active segment and starts a fresh one, so the
// snapshot covering everything up to the returned watermark can truncate
// the old segments. The watermark is the last sequence number of the
// closed segment, and Rotate returns once that segment is durable. Only
// the swap holds the append lock: the closed segment is synced and closed
// outside it, so appends to the new segment go on meanwhile. A Rotate
// that fails before the swap leaves the old segment active and fully
// usable; one whose sync fails leaves the log appendable and the closed
// segment to the next Rotate, Sync or Close to make durable.
func (l *Log) Rotate() (uint64, error) {
	l.rotMu.Lock()
	defer l.rotMu.Unlock()
	// A segment an earlier Rotate could not sync is made durable first.
	if err := l.syncClosing(); err != nil {
		return 0, err
	}
	start := time.Now()
	l.mu.Lock()
	last, err := l.swapLocked()
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if err := l.syncClosing(); err != nil {
		return 0, err
	}
	mRotateSeconds.Since(start)
	return last, nil
}

// swapLocked starts the segment after the active one and leaves the old
// one to syncClosing. An active segment that holds no records is kept:
// rotating would re-create its very file name. Callers hold rotMu and mu.
func (l *Log) swapLocked() (uint64, error) {
	switch {
	case l.closed:
		return 0, fmt.Errorf("wal: rotate closed log")
	case l.f == nil:
		return 0, errNotRecovered
	case l.fail != nil:
		return 0, l.fail
	case l.first == l.seq+1:
		// Every record is in a closed segment, and none is waiting on a
		// sync: syncClosing ran first.
		l.syncedSeq, l.syncedOff = l.seq, 0
		return l.seq, nil
	}
	next := filepath.Join(l.dir, segName(l.seq+1))
	if _, serr := l.fs.Stat(next); serr == nil {
		// A stale file occupies the next segment name — a .dead
		// preservation that failed during a damaged open. Appending
		// after its contents would corrupt the log, so preservation
		// must succeed before rotation can proceed.
		if err := l.fs.Rename(next, next+".dead"); err != nil {
			return 0, fmt.Errorf("wal: rotate: stale segment %s cannot be preserved: %w", segName(l.seq+1), err)
		}
	}
	f, err := l.fs.OpenFile(next, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	l.closing, l.closingLast = l.f, l.seq
	l.f = f
	l.first = l.seq + 1
	l.off = 0
	l.syncedOff = 0 // of the new segment: nothing yet
	return l.seq, nil
}

// syncClosing makes the segment Rotate swapped out durable, outside mu,
// and closes it; with none waiting it does nothing. Once the sync returns
// Synced covers the segment's last record. Callers hold rotMu.
func (l *Log) syncClosing() error {
	l.mu.Lock()
	c, last := l.closing, l.closingLast
	l.mu.Unlock()
	if c == nil {
		return nil
	}
	if err := c.Sync(); err != nil {
		mFsyncErrors.Inc()
		return fmt.Errorf("wal: %w", err)
	}
	l.mu.Lock()
	l.closing = nil
	if l.syncedSeq < last {
		l.syncedSeq, l.syncedOff = last, 0
	}
	l.mu.Unlock()
	if err := c.Close(); err != nil {
		// The segment is durable; the close failure is surfaced but the
		// log remains consistent.
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// RemoveThrough deletes every segment whose records all have sequence
// numbers ≤ seq. The active segment is never removed. It lists and
// unlinks outside the append lock.
func (l *Log) RemoveThrough(seq uint64) error {
	l.rotMu.Lock()
	defer l.rotMu.Unlock()
	firsts, err := segments(l.fs, l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	keep := 0
	for i := 0; i+1 < len(firsts); i++ {
		// Segment i ends where segment i+1 begins.
		if firsts[i+1]-1 > seq {
			break
		}
		if err := l.fs.Remove(filepath.Join(l.dir, segName(firsts[i]))); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		keep = i + 1
	}
	if len(firsts) > 0 {
		l.mu.Lock()
		l.oldest = firsts[keep]
		l.mu.Unlock()
	}
	return nil
}

// Heal attempts to restore a log whose appends are failing: the sticky
// rollback-failure poison is retried (truncating the active segment
// back to its last good record) and the segment is fsynced. On success
// the log accepts appends again with every acknowledged record intact —
// the degraded hub's recovery probe calls this once the disk answers
// again.
func (l *Log) Heal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: heal closed log")
	}
	if l.f == nil {
		return errNotRecovered
	}
	if l.fail != nil {
		if err := l.f.Truncate(l.off); err != nil {
			return fmt.Errorf("wal: heal: %w", err)
		}
		l.fail = nil
	}
	if err := l.syncLocked(); err != nil {
		return fmt.Errorf("wal: heal: %w", err)
	}
	mHealTotal.Inc()
	return nil
}

// Sync forces the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.f == nil {
		return nil
	}
	start := time.Now()
	if err := l.syncLocked(); err != nil {
		mFsyncErrors.Inc()
		return fmt.Errorf("wal: %w", err)
	}
	mFsyncSeconds.Since(start)
	return nil
}

// syncLocked forces every appended record to stable storage: the
// segment a Rotate has not yet seen durable, if any, and the active one.
// Callers hold mu.
func (l *Log) syncLocked() error {
	if l.closing != nil {
		if err := l.closing.Sync(); err != nil {
			return err
		}
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.syncedSeq, l.syncedOff = l.seq, l.off
	return nil
}

// Synced reports the last sequence number known forced to stable
// storage and the corresponding byte offset within the active segment.
// Under a power-loss crash model, records beyond this point may be
// lost; crash harnesses truncate to the offset to simulate exactly
// that.
func (l *Log) Synced() (seq uint64, off int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncedSeq, l.syncedOff
}

// Close syncs and closes the log and releases the directory lock.
func (l *Log) Close() error {
	l.rotMu.Lock()
	defer l.rotMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.lock != nil {
		defer l.lock.Close()
	}
	if l.f == nil {
		return nil
	}
	err := l.syncLocked()
	if l.closing != nil {
		l.closing.Close()
		l.closing = nil
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// DropLock releases the directory lock while leaving the log handle
// open — a test hook for crash harnesses, simulating what the kernel
// does when a writer process dies: the lock vanishes, the torn state
// stays. A new Open can then take over the directory; this handle must
// not be used for further appends.
func (l *Log) DropLock() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lock != nil {
		l.lock.Close()
		l.lock = nil
	}
}
