package wal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// collect replays the whole log into memory.
func collect(t *testing.T, l *Log, after uint64) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(after, func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	defer l2.Close()
	if l2.Damage() != nil {
		t.Fatalf("unexpected damage: %v", l2.Damage())
	}
	if l2.LastSeq() != 25 {
		t.Fatalf("LastSeq = %d, want 25", l2.LastSeq())
	}
	recs := collect(t, l2, 0)
	if len(recs) != 25 {
		t.Fatalf("replayed %d records", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || string(r.Payload) != want[i] {
			t.Fatalf("record %d: seq %d payload %q", i, r.Seq, r.Payload)
		}
	}
	// Replay after a watermark skips the covered prefix.
	tail := collect(t, l2, 20)
	if len(tail) != 5 || tail[0].Seq != 21 {
		t.Fatalf("tail replay: %d records, first seq %d", len(tail), tail[0].Seq)
	}
	// Appends continue the sequence.
	seq, err := l2.Append([]byte(`{"more":true}`))
	if err != nil || seq != 26 {
		t.Fatalf("append after reopen: seq %d err %v", seq, err)
	}
}

func TestRotateAndRemoveThrough(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	recs := collect(t, l, wm)
	if len(recs) != 5 || recs[0].Seq != 11 {
		t.Fatalf("post-truncation replay: %d records, first %d", len(recs), recs[0].Seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen after truncation: the sequence floor comes from the segment
	// name even though earlier records are gone.
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 15 {
		t.Fatalf("LastSeq after truncation = %d, want 15", l2.LastSeq())
	}
}

func TestEmptyRotatedSegmentKeepsSequenceFloor(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	if l2.Damage() == nil {
		t.Fatal("torn tail not reported")
	}
	if l2.LastSeq() != 8 {
		t.Fatalf("LastSeq = %d, want 8 (stop at last good record)", l2.LastSeq())
	}
	if n := len(collect(t, l2, 0)); n != 8 {
		t.Fatalf("replay: %d records", n)
	}
	// The torn bytes are gone; appends continue cleanly.
	if seq, err := l2.Append([]byte(`{"n":"recovered"}`)); err != nil || seq != 9 {
		t.Fatalf("append after truncation: seq %d err %v", seq, err)
	}
}

func TestCorruptMiddleStopsAtLastGoodRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	if l2.Damage() == nil {
		t.Fatal("corruption not reported")
	}
	// Recovery stops at the last good record (seq 3); the unreachable
	// later segment is preserved as .dead, not replayed.
	if l2.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", l2.LastSeq())
	}
	if n := len(collect(t, l2, 0)); n != 3 {
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
// the one before it is damage at the end of the last good record — to
// the scan Open runs, which truncates there, and to Replay on a handle
// whose segment changed under it.
func TestSegmentScanDetectsSequenceJump(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	n := 0
	err = l.Replay(0, func(Record) error { n++; return nil })
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Offset != good || ce.Reason != reason || n != 2 {
		t.Fatalf("replay over a sequence jump = %v after %d records, want %q at offset %d after 2", err, n, reason, good)
	}
	last, off, dmg, err := scanSegment(OS, path, 0)
	if err != nil || last != 2 || off != good || dmg == nil || dmg.Offset != good || dmg.Reason != segName(1)+": "+reason {
		t.Fatalf("scanSegment = seq %d, offset %d, damage %v, error %v; want seq 2, offset %d, %q", last, off, dmg, err, good, reason)
	}
	// The first record of a segment continues the segment before it.
	if last, off, dmg, err := scanSegment(OS, path, 7); err != nil || last != 7 || off != 0 || dmg == nil ||
		dmg.Reason != segName(1)+": sequence jump: 1 after 7" {
		t.Fatalf("scanSegment after seq 7 = seq %d, offset %d, damage %v, error %v", last, off, dmg, err)
	}
	l.Close()
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if d := l2.Damage(); d == nil || d.Offset != good || l2.LastSeq() != 2 {
		t.Fatalf("open over a sequence jump: damage %v, last seq %d", d, l2.LastSeq())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != good {
		t.Fatalf("segment not truncated to its last good record: %v, %v", fi, err)
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
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	boom := fmt.Errorf("boom")
	n := 0
	err = l.Replay(0, func(Record) error {
		n++
		if n == 2 {
			return boom
		}
		return nil
	})
	if err != boom || n != 2 {
		t.Fatalf("abort: err %v after %d records", err, n)
	}
}

func TestFrameScannerCleanEOF(t *testing.T) {
	sc := NewFrameScanner(bytes.NewReader(nil))
	if _, _, err := sc.Next(); err != io.EOF || sc.Offset() != 0 {
		t.Fatalf("empty stream: %v at offset %d", err, sc.Offset())
	}
}

func TestLostSegmentTailIsDamageNotSilence(t *testing.T) {
	// A middle segment truncated at a record boundary leaves no CRC
	// damage inside any file — only the cross-segment sequence gap
	// betrays the lost records. Recovery must stop at the last good
	// record and report damage, never replay around the hole.
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	if l2.Damage() == nil {
		t.Fatal("cross-segment sequence gap not reported as damage")
	}
	if l2.LastSeq() != 2 {
		t.Fatalf("LastSeq = %d, want 2 (stop at last good record)", l2.LastSeq())
	}
	recs := collect(t, l2, 0)
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
