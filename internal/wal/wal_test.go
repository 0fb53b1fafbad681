package wal

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// collect recovers a freshly opened log, reading the records past after
// into memory. It keeps the slices Recover hands over and reads them only
// once the read is done, as a pipelined caller may.
func collect(t *testing.T, l *Log, after uint64) []Record {
	t.Helper()
	var batches [][]Record
	if _, err := l.Recover(after, func(recs []Record) error {
		batches = append(batches, recs)
		return nil
	}); err != nil {
		t.Fatalf("recover: %v", err)
	}
	var out []Record
	for _, recs := range batches {
		out = append(out, recs...)
	}
	return out
}

// open opens the log in dir and recovers it, handing nothing over.
func open(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Recover(0, nil); err != nil {
		t.Fatal(err)
	}
	return l
}

// reopen closes l and opens the log in its directory again.
func reopen(t *testing.T, l *Log) *Log {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(l.dir)
	if err != nil {
		t.Fatal(err)
	}
	return l2
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir)
	var want []string
	for i := 0; i < 25; i++ {
		p := fmt.Sprintf(`{"n":%d,"pad":"%s"}`, i, strings.Repeat("x", i*7))
		seq, err := l.Append([]byte(p))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d", i, seq)
		}
		want = append(want, p)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(t, l2, 0)
	if l2.Damage() != nil {
		t.Fatalf("unexpected damage: %v", l2.Damage())
	}
	if l2.LastSeq() != 25 {
		t.Fatalf("LastSeq = %d, want 25", l2.LastSeq())
	}
	if len(recs) != 25 {
		t.Fatalf("replayed %d records", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || string(r.Payload) != want[i] {
			t.Fatalf("record %d: seq %d payload %q", i, r.Seq, r.Payload)
		}
	}
	// Recovery after a watermark skips the covered prefix.
	l3 := reopen(t, l2)
	defer l3.Close()
	tail := collect(t, l3, 20)
	if len(tail) != 5 || tail[0].Seq != 21 {
		t.Fatalf("tail replay: %d records, first seq %d", len(tail), tail[0].Seq)
	}
	// Appends continue the sequence.
	seq, err := l3.Append([]byte(`{"more":true}`))
	if err != nil || seq != 26 {
		t.Fatalf("append after reopen: seq %d err %v", seq, err)
	}
}

func TestRotateAndRemoveThrough(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir)
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	wm, err := l.Rotate()
	if err != nil || wm != 10 {
		t.Fatalf("rotate: wm %d err %v", wm, err)
	}
	for i := 10; i < 15; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	l = reopen(t, l)
	if n := len(collect(t, l, 0)); n != 15 {
		t.Fatalf("replay across segments: %d records", n)
	}
	if err := l.RemoveThrough(wm); err != nil {
		t.Fatal(err)
	}
	// The first segment is gone; the tail survives.
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatalf("segment 1 not removed: %v", err)
	}
	l = reopen(t, l)
	recs := collect(t, l, wm)
	if len(recs) != 5 || recs[0].Seq != 11 {
		t.Fatalf("post-truncation replay: %d records, first %d", len(recs), recs[0].Seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen after truncation: the sequence floor comes from the segment
	// name even though earlier records are gone.
	l2 := open(t, dir)
	defer l2.Close()
	if l2.LastSeq() != 15 {
		t.Fatalf("LastSeq after truncation = %d, want 15", l2.LastSeq())
	}
}

func TestEmptyRotatedSegmentKeepsSequenceFloor(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir)
	for i := 0; i < 4; i++ {
		if _, err := l.Append([]byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveThrough(4); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Only the empty rotated segment remains; a fresh Open must not
	// restart sequence numbers below the truncated history.
	l2 := open(t, dir)
	defer l2.Close()
	if l2.LastSeq() != 4 {
		t.Fatalf("LastSeq = %d, want 4", l2.LastSeq())
	}
	if seq, err := l2.Append([]byte(`{}`)); err != nil || seq != 5 {
		t.Fatalf("append: seq %d err %v", seq, err)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir)
	for i := 0; i < 8; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn final write: append half a frame.
	path := filepath.Join(dir, segName(1))
	frame, err := EncodeRecord(9, []byte(`{"n":8}`))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(frame[:len(frame)/2])
	f.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n := len(collect(t, l2, 0))
	if l2.Damage() == nil {
		t.Fatal("torn tail not reported")
	}
	if l2.LastSeq() != 8 {
		t.Fatalf("LastSeq = %d, want 8 (stop at last good record)", l2.LastSeq())
	}
	if n != 8 {
		t.Fatalf("replay: %d records", n)
	}
	// The torn bytes are gone; appends continue cleanly.
	if seq, err := l2.Append([]byte(`{"n":"recovered"}`)); err != nil || seq != 9 {
		t.Fatalf("append after truncation: seq %d err %v", seq, err)
	}
}

func TestCorruptMiddleStopsAtLastGoodRecord(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir)
	for i := 0; i < 6; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 9; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside record 4 of the first segment.
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	target := lines[3]
	target[len(target)-3] ^= 0xff
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n := len(collect(t, l2, 0))
	if l2.Damage() == nil {
		t.Fatal("corruption not reported")
	}
	// Recovery stops at the last good record (seq 3); the unreachable
	// later segment is preserved as .dead, not replayed.
	if l2.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", l2.LastSeq())
	}
	if n != 3 {
		t.Fatalf("replay: %d records", n)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(7)+".dead")); err != nil {
		t.Fatalf("later segment not preserved as .dead: %v", err)
	}
	if seq, err := l2.Append([]byte(`{}`)); err != nil || seq != 4 {
		t.Fatalf("append: seq %d err %v", seq, err)
	}
}

func TestEncodeRecordRejectsNewlinePayload(t *testing.T) {
	if _, err := EncodeRecord(1, []byte("a\nb")); err == nil {
		t.Fatal("newline payload accepted")
	}
}

// TestFrameCanonicalForm holds the hand-built frame to the format string
// that defines it, and the parser's field-by-field canonical-form checks
// to what re-encoding and comparing used to refuse.
func TestFrameCanonicalForm(t *testing.T) {
	for _, c := range []struct {
		seq     uint64
		payload string
	}{{1, ""}, {1, "{}"}, {9, "x"}, {10, "a b  c"}, {1<<64 - 1, strings.Repeat("é", 300)}, {42, "\x00\xff"}} {
		want := fmt.Appendf(nil, "%s %d %08x %d %s\n", magic, c.seq, crc32.Checksum([]byte(c.payload), castagnoli), len(c.payload), c.payload)
		got, err := EncodeRecord(c.seq, []byte(c.payload))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("EncodeRecord(%d, %q) = %q, %v; want %q", c.seq, c.payload, got, err, want)
		}
		if rec, err := DecodeRecord(got); err != nil || rec.Seq != c.seq || string(rec.Payload) != c.payload {
			t.Fatalf("DecodeRecord(%q) = %+v, %v", got, rec, err)
		}
	}
	// crc32c("abc") is 364b3fb7: every frame below carries the right
	// checksum and length and differs from the canonical one in form only.
	if _, err := DecodeRecord([]byte("w1 7 364b3fb7 3 abc\n")); err != nil {
		t.Fatal(err)
	}
	for _, frame := range []string{
		"w1 07 364b3fb7 3 abc\n", "w1 +7 364b3fb7 3 abc\n", "w1 7 364B3FB7 3 abc\n", "w1 7 364b3fb7 03 abc\n",
		"w1 7 364b3fb7 +3 abc\n", "w1 7 0x4b3fb7 3 abc\n", "w1 7 364b3fb7 3  abc\n", "w1  7 364b3fb7 3 abc\n",
		"w1 7 00000000 0\n", "w1 7 00000000 00 \n", "w1 7 00000000 -0 \n", "w1 1_0 364b3fb7 3 abc\n",
	} {
		if rec, err := DecodeRecord([]byte(frame)); err == nil {
			t.Errorf("non-canonical frame %q decoded as %+v", frame, rec)
		}
	}
}

// TestSegmentScanDetectsSequenceJump: a record that does not continue
// the one before it is damage at the end of the last good record — the
// records before it handed over, the segment truncated there.
func TestSegmentScanDetectsSequenceJump(t *testing.T) {
	dir := t.TempDir()
	var data []byte
	var good int64
	for _, seq := range []uint64{1, 2, 5} {
		frame, err := EncodeRecord(seq, []byte(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		if seq == 5 {
			good = int64(len(data))
		}
		data = append(data, frame...)
	}
	path := filepath.Join(dir, segName(1))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	const reason = "sequence jump: 5 after 2"
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n := len(collect(t, l, 0)); n != 2 {
		t.Fatalf("recovery over a sequence jump handed over %d records, want 2", n)
	}
	if d := l.Damage(); d == nil || d.Offset != good || d.Reason != segName(1)+": "+reason || l.LastSeq() != 2 {
		t.Fatalf("open over a sequence jump: damage %v, last seq %d; want %q at offset %d", d, l.LastSeq(), reason, good)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != good {
		t.Fatalf("segment not truncated to its last good record: %v, %v", fi, err)
	}
	// The first record of a segment continues the segment before it.
	if last, off, dmg, err := readFrames(NewFrameReader(bytes.NewReader(data), 8), segName(1), 7, 0, new(atomic.Int64), nil); err != nil || last != 7 || off != 0 || dmg == nil ||
		dmg.Reason != segName(1)+": sequence jump: 1 after 7" {
		t.Fatalf("segment read after seq 7 = seq %d, offset %d, damage %v, error %v", last, off, dmg, err)
	}
}

func TestDecodeRecordSingleFrame(t *testing.T) {
	frame, err := EncodeRecord(42, []byte(`{"snapshot":true}`))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeRecord(frame)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 42 || string(rec.Payload) != `{"snapshot":true}` {
		t.Fatalf("round trip: %+v", rec)
	}
	if _, err := DecodeRecord(append(frame, frame...)); err == nil {
		t.Fatal("two frames accepted as one")
	}
	if _, err := DecodeRecord(frame[:len(frame)-2]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-2] ^= 1
	if _, err := DecodeRecord(flipped); err == nil {
		t.Fatal("corrupt frame accepted")
	}
}

func TestReplayEmptyAndMissingDir(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(filepath.Join(dir, "nested", "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n := len(collect(t, l, 0)); n != 0 {
		t.Fatalf("fresh log replayed %d records", n)
	}
	if l.LastSeq() != 0 {
		t.Fatalf("fresh LastSeq = %d", l.LastSeq())
	}
}

func TestReplayCallbackErrorAborts(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	l = reopen(t, l)
	defer l.Close()
	boom := fmt.Errorf("boom")
	n := 0
	_, err := l.Recover(0, func(recs []Record) error {
		n += len(recs)
		return boom
	})
	if err != boom || n != 3 {
		t.Fatalf("abort: err %v after %d records", err, n)
	}
	// An aborted recovery leaves the log closed to appends.
	if _, err := l.Append([]byte(`{}`)); err == nil {
		t.Fatal("a log whose recovery was aborted took an append")
	}
}

// TestFrameCutterCleanEOF: no bytes, whether held or streamed, are a
// clean end at offset 0.
func TestFrameCutterCleanEOF(t *testing.T) {
	for _, c := range []*FrameCutter{NewFrameCutter(nil), NewFrameReader(bytes.NewReader(nil), 1)} {
		if _, _, err := c.Next(); err != io.EOF || c.Offset() != 0 {
			t.Fatalf("empty input: %v at offset %d", err, c.Offset())
		}
	}
}

func TestLostSegmentTailIsDamageNotSilence(t *testing.T) {
	// A middle segment truncated at a record boundary leaves no CRC
	// damage inside any file — only the cross-segment sequence gap
	// betrays the lost records. Recovery must stop at the last good
	// record and report damage, never replay around the hole.
	dir := t.TempDir()
	l := open(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Drop record 3 (the last of segment 1) at an exact frame boundary.
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if err := os.WriteFile(path, bytes.Join(lines[:2], nil), 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := collect(t, l2, 0)
	if l2.Damage() == nil {
		t.Fatal("cross-segment sequence gap not reported as damage")
	}
	if l2.LastSeq() != 2 {
		t.Fatalf("LastSeq = %d, want 2 (stop at last good record)", l2.LastSeq())
	}
	if len(recs) != 2 || recs[len(recs)-1].Seq != 2 {
		t.Fatalf("replayed %d records, last seq %d", len(recs), recs[len(recs)-1].Seq)
	}
	// The unreachable later segment is preserved, not replayed.
	if _, err := os.Stat(filepath.Join(dir, segName(4)+".dead")); err != nil {
		t.Fatalf("later segment not preserved as .dead: %v", err)
	}
	// Appends continue from the last good record.
	if seq, err := l2.Append([]byte(`{}`)); err != nil || seq != 3 {
		t.Fatalf("append: seq %d err %v", seq, err)
	}
}

func TestDirectoryLockExcludesSecondWriter(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("second writer acquired a locked directory")
	}
	// Close releases the lock; DropLock simulates a writer death.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	l2.DropLock()
	l3, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after dropped lock: %v", err)
	}
	if err := l3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverFrameLongerThanWindow: with the frame cap, and so the
// recovery window, lowered to 64 bytes, every frame is longer than the
// window that starts it; recovery grows the window to hold each and hands
// every record over, in order, with no damage. A log not yet recovered
// takes no append.
func TestRecoverFrameLongerThanWindow(t *testing.T) {
	defer SetFrameCapForTesting(64)()
	dir := t.TempDir()
	l := open(t, dir)
	var want []string
	for i := range 20 {
		p := fmt.Sprintf(`{"n":%d,"pad":"%s"}`, i, strings.Repeat("x", 40+i%8))
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	l = reopen(t, l)
	defer l.Close()
	if _, err := l.Append([]byte(`{}`)); err == nil {
		t.Fatal("a log not yet recovered took an append")
	}
	recs := collect(t, l, 0)
	if l.Damage() != nil || len(recs) != len(want) {
		t.Fatalf("recovered %d records, damage %v; want %d and none", len(recs), l.Damage(), len(want))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || string(r.Payload) != want[i] {
			t.Fatalf("record %d: seq %d payload %q", i, r.Seq, r.Payload)
		}
	}
}

// TestRecoverTornFrameAcrossWindows: a torn last frame that starts in
// one 64-byte window and ends in the next is the damage an unwindowed
// read finds — truncated at the last good record, which the writer then
// continues.
func TestRecoverTornFrameAcrossWindows(t *testing.T) {
	defer SetFrameCapForTesting(64)()
	dir := t.TempDir()
	l := open(t, dir)
	for range 3 {
		if _, err := l.Append([]byte(`{"pad":"0123456789"}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	good, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeRecord(4, []byte(`{"pad":"0123456789"}`))
	if err != nil {
		t.Fatal(err)
	}
	// Three 38-byte frames end at 114: the torn fourth starts in the
	// second 64-byte read and ends in the third.
	if good.Size()%64 > 64-10 || good.Size()%64+int64(len(frame)-1) <= 64 {
		t.Fatalf("the torn frame at %d does not straddle a window", good.Size())
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(frame[:len(frame)-1])
	f.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n := len(collect(t, l2, 0))
	d := l2.Damage()
	if n != 3 || l2.LastSeq() != 3 || d == nil || d.Offset != good.Size() || d.Reason != segName(1)+": "+truncatedFrame {
		t.Fatalf("recovered %d records to seq %d, damage %v; want 3, a truncated frame at offset %d", n, l2.LastSeq(), d, good.Size())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != good.Size() {
		t.Fatalf("torn frame not truncated away: %v, %v", fi, err)
	}
	if seq, err := l2.Append([]byte(`{}`)); err != nil || seq != 4 {
		t.Fatalf("append after truncation: seq %d err %v", seq, err)
	}
}
