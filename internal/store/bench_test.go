package store_test

// The storage seam's benchmarks, one series per backend and tier: a
// cluster read served from resident memory (mem, and disk's hot tier),
// a read that pages its record back from the spill file (disk, hot
// budget far under the working set), and the publication of a new
// record (which, on disk over budget, pays one spill write).
//
//	go test -run=NONE -bench=. -count=10 ./internal/store

import (
	"testing"

	"entityid/internal/store"
	"entityid/internal/store/disk"
	"entityid/internal/store/mem"
)

// benchRecords two-member records are the working set; coldBudget
// resident members is what the squeezed disk tier may keep of them.
const (
	benchRecords = 4096
	coldBudget   = 64
)

func openDisk(b *testing.B, hotEntries int) store.Backend {
	be, err := disk.Open(b.TempDir(), store.Caps{HotClusterEntries: hotEntries, HotPairs: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { be.Close() })
	return be
}

func pairRecord(i int) []store.Node { return []store.Node{n(0, i), n(1, i)} }

// BenchmarkRead cycles through the records in publication order, which
// against an LRU tier smaller than the cycle makes every cold read a
// page-in and every hot read a hit; the tier's own counters check it.
// B/op on disk-cold is what one page-in allocates.
func BenchmarkRead(b *testing.B) {
	for _, tier := range []struct {
		name string
		open func(b *testing.B) store.Backend
		cold bool
	}{
		{"mem", func(*testing.B) store.Backend { return mem.New() }, false},
		{"disk-hot", func(b *testing.B) store.Backend { return openDisk(b, 2*benchRecords) }, false},
		{"disk-cold", func(b *testing.B) store.Backend { return openDisk(b, coldBudget) }, true},
	} {
		b.Run(tier.name, func(b *testing.B) {
			c := tier.open(b).Clusters()
			for i := 0; i < benchRecords; i++ {
				c.Publish(pairRecord(i))
			}
			before := c.Stats().PageIns
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms, err := c.Read(n(0, i%benchRecords))
				if err != nil || len(ms) != 2 {
					b.Fatalf("read %d = %v, %v", i, ms, err)
				}
			}
			b.StopTimer()
			want := int64(0)
			if tier.cold {
				want = int64(b.N)
			}
			if got := c.Stats().PageIns - before; got != want {
				b.Fatalf("%d page-ins over %d reads, want %d", got, b.N, want)
			}
		})
	}
}

// BenchmarkPublish installs one fresh record per operation.
func BenchmarkPublish(b *testing.B) {
	for _, tier := range []struct {
		name string
		open func(b *testing.B) store.Backend
	}{
		{"mem", func(*testing.B) store.Backend { return mem.New() }},
		{"disk", func(b *testing.B) store.Backend { return openDisk(b, coldBudget) }},
	} {
		b.Run(tier.name, func(b *testing.B) {
			c := tier.open(b).Clusters()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Publish(pairRecord(i))
			}
		})
	}
}
