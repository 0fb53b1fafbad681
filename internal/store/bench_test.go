package store_test

// The storage seam's benchmarks, one series per backend and tier: a
// cluster read served from resident memory (mem, and disk's hot tier),
// a read that pages its record back from the spill file (disk, hot
// budget far under the working set) — into the tier as a point read
// does, or through it as a scan does — the publication of a new record
// (which, on disk over budget, appends one spill record to the tail the
// tier writes a batch at a time), and the read of the whole partition
// that a recovery's fold ends with.
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
// fillerRecords more records, published after the working set, are more
// than one of the disk tier's 64 KiB spill batches, so the working set's
// records (about 45 KiB) are all written to the file, not left in the
// tail the tier serves from memory.
const (
	benchRecords  = 4096
	coldBudget    = 64
	fillerRecords = 2 * benchRecords
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
// On the cold legs filler records follow the working set, so each of
// their page-ins is a read of the spill file. disk-window reads the same
// cold records through the tier as a walk does, store.WindowNodes of them
// a window, and the tier must end as it began; an operation there is one
// cold record, so ns/op is the time a window spends on each, and B/op
// what each allocates (nothing: the window is reused). B/op on the other
// cold leg is what one page-in allocates.
func BenchmarkRead(b *testing.B) {
	for _, tier := range []struct {
		name         string
		open         func(b *testing.B) store.Backend
		cold, window bool
	}{
		{"mem", func(*testing.B) store.Backend { return mem.New() }, false, false},
		{"disk-hot", func(b *testing.B) store.Backend { return openDisk(b, 2*benchRecords) }, false, false},
		{"disk-cold", func(b *testing.B) store.Backend { return openDisk(b, coldBudget) }, true, false},
		{"disk-window", func(b *testing.B) store.Backend { return openDisk(b, coldBudget) }, true, true},
	} {
		b.Run(tier.name, func(b *testing.B) {
			c := tier.open(b).Clusters()
			for i := 0; i < benchRecords; i++ {
				c.Publish(pairRecord(i))
			}
			if tier.cold {
				for i := 0; i < fillerRecords; i++ {
					c.Publish([]store.Node{n(2, i), n(3, i)})
				}
			}
			w := &store.Window{Leads: true}
			before := c.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			if tier.window {
				// Each window is the next run of the working set's leads, cut
				// short where the cycle or the b.N records end.
				for i := 0; i < b.N; i += w.Hi - w.Lo {
					lo := i % benchRecords
					w.Lo, w.Hi = lo, min(lo+store.WindowNodes, benchRecords, lo+b.N-i)
					if err := c.Window(w); err != nil {
						b.Fatal(err)
					}
					for k, got := range w.Got[:w.Hi-w.Lo] {
						if len(got.Members) != 2 || got.First != n(0, lo+k) {
							b.Fatalf("window at %d = %+v", lo+k, got)
						}
					}
				}
			} else {
				for i := 0; i < b.N; i++ {
					ms, err := c.Read(n(0, i%benchRecords))
					if err != nil || len(ms) != 2 {
						b.Fatalf("read %d = %v, %v", i, ms, err)
					}
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
			if tier.window && (after.HotRecords != before.HotRecords || after.ColdRecords != before.ColdRecords || after.Spills != before.Spills) {
				b.Fatalf("reads through the tier moved it: %+v, was %+v", after, before)
			}
		})
	}
}

// BenchmarkPublish installs one fresh record per operation; on disk each
// evicts one, whose record joins the spill tail.
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

// BenchmarkPartition reads the whole partition of a mostly cold tier,
// its records published in canonical order as a recovery's fold
// publishes them: eight working sets, so several spill batches are in
// the file and the rest in the tail. Each operation is one Partition;
// records/op is the partition's size.
func BenchmarkPartition(b *testing.B) {
	const records = 8 * benchRecords
	for _, tier := range []struct {
		name string
		open func(b *testing.B) store.Backend
	}{
		{"mem", func(*testing.B) store.Backend { return mem.New() }},
		{"disk", func(b *testing.B) store.Backend { return openDisk(b, coldBudget) }},
	} {
		b.Run(tier.name, func(b *testing.B) {
			c := tier.open(b).Clusters()
			for i := 0; i < records; i++ {
				c.Publish(pairRecord(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				part, err := c.Partition()
				if err != nil || len(part) != records {
					b.Fatalf("Partition = %d records, %v", len(part), err)
				}
			}
			b.ReportMetric(records, "records/op")
		})
	}
}
