package wal_test

// Fault-injection tests for the log itself, driven through the errfs
// seam: failed appends roll back or poison-then-heal, rotation refuses
// to append over a stale segment, and damaged opens surface .dead
// preservation failures instead of swallowing them.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"entityid/internal/wal"
	"entityid/internal/wal/errfs"
)

// collect recovers a freshly opened log, reading the whole of it into a
// payload list.
func collect(t *testing.T, l *wal.Log) []string {
	t.Helper()
	var got []string
	if _, err := l.Recover(0, func(recs []wal.Record) error {
		for _, rec := range recs {
			got = append(got, string(rec.Payload))
		}
		return nil
	}); err != nil {
		t.Fatalf("recover: %v", err)
	}
	return got
}

// open opens the log in dir over fsys and recovers it, handing nothing
// over.
func open(t *testing.T, dir string, fsys wal.FS) *wal.Log {
	t.Helper()
	l, err := wal.OpenFS(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Recover(0, nil); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAppendENOSPCRollsBack(t *testing.T) {
	dir := t.TempDir()
	fs := errfs.New(nil)
	l := open(t, dir, fs)
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// One failed write, landing 4 partial bytes on disk: the append must
	// be rejected, the partial bytes rolled back, and the next append
	// must land cleanly right after record 3.
	fs.Inject(errfs.Rule{Op: errfs.OpWrite, PathContains: "wal-", Count: 1, Err: syscall.ENOSPC, Partial: 4})
	if _, err := l.Append([]byte("doomed")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("faulted append = %v, want ENOSPC", err)
	}
	seq, err := l.Append([]byte("after"))
	if err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	if seq != 4 {
		t.Fatalf("append after rollback got seq %d, want 4", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if d := l2.Damage(); d != nil {
		t.Fatalf("rollback left damage on disk: %v", d)
	}
	want := []string{"rec-0", "rec-1", "rec-2", "after"}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestInjectTornAppends is a process dying mid-append: the fourth
// segment write tears and the rollback's truncate fails with it, so
// half a frame stays on disk, the append is never acknowledged and the
// log takes no other. The next open — the dead writer's lock gone with
// it — drops the half frame and keeps the three good records.
func TestInjectTornAppends(t *testing.T) {
	dir := t.TempDir()
	fs := errfs.New(nil)
	l := open(t, dir, fs)
	fs.Inject(
		errfs.Rule{Op: errfs.OpWrite, PathContains: "wal-", After: 3, Err: syscall.EIO, Partial: 12},
		errfs.Rule{Op: errfs.OpTruncate, PathContains: "wal-", Err: syscall.EIO},
	)
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(`{"ok":true}`)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, err := l.Append([]byte(`{"doomed":true}`)); !errors.Is(err, wal.ErrLogUnusable) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn append: %v", err)
	}
	if _, err := l.Append([]byte(`{"after":true}`)); !errors.Is(err, wal.ErrLogUnusable) {
		t.Fatalf("post-torn append: %v", err)
	}
	l.DropLock()
	l2 := open(t, dir, wal.OS)
	defer l2.Close()
	if l2.Damage() == nil {
		t.Fatal("torn write left no detectable damage")
	}
	if l2.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", l2.LastSeq())
	}
}

func TestAppendPoisonThenHeal(t *testing.T) {
	dir := t.TempDir()
	fs := errfs.New(nil)
	l := open(t, dir, fs)
	defer l.Close()
	if _, err := l.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	// The write fails AND the rollback truncate fails: the log poisons
	// itself — every further append refused with ErrLogUnusable — so
	// garbage bytes can never end up followed by acknowledged records.
	fs.Inject(
		errfs.Rule{Op: errfs.OpWrite, PathContains: "wal-", Err: syscall.ENOSPC, Partial: 4},
		errfs.Rule{Op: errfs.OpTruncate, PathContains: "wal-", Err: syscall.EIO},
	)
	if _, err := l.Append([]byte("doomed")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("faulted append = %v, want ENOSPC", err)
	}
	if _, err := l.Append([]byte("refused")); !errors.Is(err, wal.ErrLogUnusable) {
		t.Fatalf("append on poisoned log = %v, want ErrLogUnusable", err)
	}
	// Heal fails while the disk is still sick...
	if err := l.Heal(); err == nil {
		t.Fatal("heal succeeded while truncate still faulted")
	}
	// ...and succeeds once it recovers, restoring appends with every
	// acknowledged record intact.
	fs.Clear()
	if err := l.Heal(); err != nil {
		t.Fatalf("heal after faults cleared: %v", err)
	}
	seq, err := l.Append([]byte("recovered"))
	if err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if seq != 2 {
		t.Fatalf("append after heal got seq %d, want 2", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != 2 || got[0] != "good" || got[1] != "recovered" {
		t.Fatalf("replay after heal = %q, want [good recovered]", got)
	}
}

func TestRotateEmptySegmentIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, wal.OS)
	defer l.Close()
	for i := 0; i < 2; i++ {
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	w1, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	// A second rotate with nothing appended since must not try to
	// re-create the active segment's own file (O_EXCL would reject it);
	// it just reports the same watermark.
	w2, err := l.Rotate()
	if err != nil {
		t.Fatalf("rotate of empty active segment: %v", err)
	}
	if w1 != 2 || w2 != 2 {
		t.Fatalf("watermarks = %d, %d, want 2, 2", w1, w2)
	}
	if seq, err := l.Append([]byte("y")); err != nil || seq != 3 {
		t.Fatalf("append after double rotate = (%d, %v), want (3, nil)", seq, err)
	}
}

// walSegName mirrors the log's segment naming for hand-crafted layouts.
func walSegName(first uint64) string {
	return fmt.Sprintf("wal-%020d.log", first)
}

// writeSegment hand-writes a segment file holding records seq..seq+n-1.
func writeSegment(t *testing.T, dir string, firstSeq uint64, n int) {
	t.Helper()
	var buf []byte
	for i := 0; i < n; i++ {
		frame, err := wal.EncodeRecord(firstSeq+uint64(i), []byte(fmt.Sprintf("rec-%d", firstSeq+uint64(i))))
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, frame...)
	}
	if err := os.WriteFile(filepath.Join(dir, walSegName(firstSeq)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestOpenSurfacesDeadRenameFailure(t *testing.T) {
	dir := t.TempDir()
	// Segments 1-2 and 5-6 with records 3-4 missing: the second segment
	// is unreachable damage and must be preserved as .dead.
	writeSegment(t, dir, 1, 2)
	writeSegment(t, dir, 5, 2)

	fs := errfs.New(nil)
	fs.Inject(errfs.Rule{Op: errfs.OpRename, PathContains: walSegName(5), Err: syscall.EIO})
	l, err := wal.OpenFS(dir, fs)
	if err == nil {
		_, err = l.Recover(0, nil)
	}
	if err != nil {
		t.Fatalf("open with rename fault: %v", err)
	}
	d := l.Damage()
	if d == nil {
		t.Fatal("gap not reported as damage")
	}
	// The failed preservation must be surfaced, not silently absorbed.
	if !strings.Contains(d.Reason, "preserving") || !strings.Contains(d.Reason, "failed") {
		t.Fatalf("damage does not surface the rename failure: %q", d.Reason)
	}
	if _, err := os.Stat(filepath.Join(dir, walSegName(5))); err != nil {
		t.Fatalf("stale segment should remain in place after failed rename: %v", err)
	}

	// The stale segment occupies the next rotation target (active ends
	// at seq 2; two appends bring it to 4, the next segment is 5).
	// Rotate must move it out of the way rather than append over it.
	for i := 0; i < 2; i++ {
		if _, err := l.Append([]byte("new")); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	fs.Clear()
	if _, err := l.Rotate(); err != nil {
		t.Fatalf("rotate over stale segment: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, walSegName(5)+".dead")); err != nil {
		t.Fatalf("stale segment not preserved as .dead by rotate: %v", err)
	}
	if seq, err := l.Append([]byte("post")); err != nil || seq != 5 {
		t.Fatalf("append after rotate = (%d, %v), want (5, nil)", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen clean: records 1,2,3,4,5 replay; the .dead file is inert.
	l2, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if d := l2.Damage(); d != nil {
		t.Fatalf("clean reopen reported damage: %v", d)
	}
	if len(got) != 5 {
		t.Fatalf("replayed %d records, want 5 (%q)", len(got), got)
	}
}

// TestRotateStaleSegmentUnpreservable pins the fail-closed branch: when
// the stale segment can neither be renamed nor safely appended over,
// Rotate refuses.
func TestRotateStaleSegmentUnpreservable(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, dir, 1, 2)
	writeSegment(t, dir, 5, 2)
	fs := errfs.New(nil)
	fs.Inject(errfs.Rule{Op: errfs.OpRename, PathContains: walSegName(5), Err: syscall.EIO})
	l := open(t, dir, fs)
	defer l.Close()
	for i := 0; i < 2; i++ {
		if _, err := l.Append([]byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Rotate(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("rotate with unpreservable stale segment = %v, want EIO", err)
	}
	// The failed rotate left the old segment active: appends continue.
	if seq, err := l.Append([]byte("still-works")); err != nil || seq != 5 {
		t.Fatalf("append after failed rotate = (%d, %v), want (5, nil)", seq, err)
	}
}
