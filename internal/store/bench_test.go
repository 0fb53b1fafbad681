package store_test

// The storage seam's benchmarks, one series per backend and tier: a
// cluster read served from resident memory (mem, and disk's hot tier),
// a read that pages its record back from the spill file (disk, hot
// budget far under the working set) — into the tier as a point read
// does, or through it as a scan does — and the publication of a new
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
	be, err := disk.Open(b.TempDir(), store.Caps{HotClusterEntries: hotEntries})
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
// disk-peek reads the same cold records through the tier: the resident
// tail of the publication order stays resident, so the cycle stops short
// of it, and the tier must end as it began. B/op on the cold legs is
// what one page-in allocates.
func BenchmarkRead(b *testing.B) {
	for _, tier := range []struct {
		name       string
		open       func(b *testing.B) store.Backend
		cold, peek bool
	}{
		{"mem", func(*testing.B) store.Backend { return mem.New() }, false, false},
		{"disk-hot", func(b *testing.B) store.Backend { return openDisk(b, 2*benchRecords) }, false, false},
		{"disk-cold", func(b *testing.B) store.Backend { return openDisk(b, coldBudget) }, true, false},
		{"disk-peek", func(b *testing.B) store.Backend { return openDisk(b, coldBudget) }, true, true},
	} {
		b.Run(tier.name, func(b *testing.B) {
			c := tier.open(b).Clusters()
			for i := 0; i < benchRecords; i++ {
				c.Publish(pairRecord(i))
			}
			read, cycle := c.Read, benchRecords
			if tier.peek {
				read, cycle = c.Peek, benchRecords-coldBudget/2
			}
			before := c.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms, err := read(n(0, i%cycle))
				if err != nil || len(ms) != 2 {
					b.Fatalf("read %d = %v, %v", i, ms, err)
				}
			}
			b.StopTimer()
			want := int64(0)
			if tier.cold {
				want = int64(b.N)
			}
			after := c.Stats()
			if got := after.PageIns - before.PageIns; got != want {
				b.Fatalf("%d page-ins over %d reads, want %d", got, b.N, want)
			}
			if tier.peek && (after.HotRecords != before.HotRecords || after.ColdRecords != before.ColdRecords || after.Spills != before.Spills) {
				b.Fatalf("reads through the tier moved it: %+v, was %+v", after, before)
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
