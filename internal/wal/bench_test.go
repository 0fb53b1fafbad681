package wal

import (
	"bytes"
	"testing"
)

// BenchmarkAppend is the log's share of one commit: frame a record
// (sequence number, length, CRC) and write it to the active segment.
// The payload is the size of a hub insert record. "sync" adds the
// fsync a SyncEvery=1 hub pays per append — it measures the
// filesystem under the test's temporary directory as much as the log.
//
//	go test -run=NONE -bench=. -count=10 ./internal/wal
func BenchmarkAppend(b *testing.B) {
	payload := bytes.Repeat([]byte("x"), 160)
	for _, sync := range []bool{false, true} {
		name := "nosync"
		if sync {
			name = "sync"
		}
		b.Run(name, func(b *testing.B) {
			l, err := Open(b.TempDir())
			if err == nil {
				_, err = l.Recover(0, nil)
			}
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(payload); err != nil {
					b.Fatal(err)
				}
				if sync {
					if err := l.Sync(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkRecover is the log's share of a restart: open a one-segment
// log of 10,000 insert-sized records, read it once, a window at a time —
// every frame cut in place, its CRC, form and sequence number checked,
// every record handed over — and close it, which syncs the segment.
func BenchmarkRecover(b *testing.B) {
	const records = 10000
	dir := b.TempDir()
	l, err := Open(dir)
	if err == nil {
		_, err = l.Recover(0, nil)
	}
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 160)
	for range records {
		if _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	var read int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if read, err = l.Recover(0, func(recs []Record) error { n += len(recs); return nil }); err != nil || n != records {
			b.Fatalf("recovered %d records: %v", n, err)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(read)
}
