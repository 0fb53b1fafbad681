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
