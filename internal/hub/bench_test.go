package hub

// The hub layer's benchmarks: what one commit, one bulk stream, one
// recovery and one incremental snapshot cost in process, with no socket
// and no front-end. The end-to-end figures are bench/'s; these say how
// much of them is the hub's. Durable hubs open on the -hub.store flag's
// backend like the tests do, so both can be measured.
//
//	go test -run=NONE -bench=. -count=10 ./internal/hub

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"entityid/internal/datagen"
	"entityid/internal/relation"
	"entityid/internal/value"
	"entityid/internal/wal"
)

// benchMulti is the K-source workload the hub benchmarks share: every
// insert is prepared against K-1 pairwise federations.
func benchMulti(sources int) *datagen.MultiWorkload {
	return datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: sources, Entities: 300, PresenceFrac: 0.6,
		HomonymRate: 0.1, MissingPhone: 0.1, DirtyPhone: 0.2,
		Seed: int64(1000 + sources),
	})
}

// freshTuple is the k-th synthetic singleton of the MultiGenerate
// schema: its key collides with nothing and its NULL phone matches
// nothing, so it always commits.
func freshTuple(k int) relation.Tuple {
	return relation.Tuple{
		value.String(fmt.Sprintf("bench-extra-%d", k)),
		value.String(fmt.Sprintf("%d bench st", k)),
		value.Null, value.Null,
	}
}

func mustIngest(b *testing.B, h *Hub, items []Insert) {
	b.Helper()
	for _, res := range h.IngestBatch(items) {
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkInsert is one tuple through Insert, the commit path a
// single-line POST takes: prepare against every linked pair, transitive
// uniqueness, (wal: encode and append, no fsync), apply, cluster fold.
// The hub is rebuilt off the clock whenever the workload runs out.
func BenchmarkInsert(b *testing.B) {
	w := benchMulti(4)
	items := MultiInserts(w)
	for _, mode := range []struct {
		name string
		open func(b *testing.B) *Hub
	}{
		{"mem", func(b *testing.B) *Hub {
			h, err := NewFromMulti(w)
			if err != nil {
				b.Fatal(err)
			}
			return h
		}},
		{"wal", func(b *testing.B) *Hub {
			h, _ := openMultiOpts(b, b.TempDir(), w, Options{})
			return h
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			h := mode.open(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := items[i%len(items)]
				if i > 0 && i%len(items) == 0 {
					b.StopTimer()
					h.Close()
					h = mode.open(b)
					b.StartTimer()
				}
				if _, err := h.Insert(it.Source, it.Tuple); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			h.Close()
		})
	}
}

// BenchmarkIngestStream is the bulk path: the whole workload through
// one IngestStream (IngestBatch is its slice-in/slice-out form) into a
// fresh memory hub, across source counts. The cold leg is the in-process
// series that tracks bench/'s read_cold ingest — the daemon settings of
// that workload (durable, disk store with a hot tier of 4096 cluster
// entries, a background snapshot every 1024 commits) under ≈48k shuffled
// tuples over four sources — so the layers' sum has a hub row for it.
func BenchmarkIngestStream(b *testing.B) {
	stream := func(b *testing.B, items []Insert, open func() *Hub) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := open()
			mustIngest(b, h, items)
			b.StopTimer()
			if err := h.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(len(items))*float64(b.N)/b.Elapsed().Seconds(), "tuples/sec")
	}
	for _, k := range []int{2, 4} {
		b.Run(fmt.Sprintf("sources=%d", k), func(b *testing.B) {
			w := benchMulti(k)
			stream(b, MultiInserts(w), func() *Hub {
				h, err := NewFromMulti(w)
				if err != nil {
					b.Fatal(err)
				}
				return h
			})
		})
	}
	b.Run("cold", func(b *testing.B) {
		w := datagen.MustMultiGenerate(datagen.MultiConfig{
			Sources: 4, Entities: 20000, PresenceFrac: 0.6,
			HomonymRate: 0.1, MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 1025,
		})
		items := MultiInserts(w)
		rand.New(rand.NewSource(1025)).Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		stream(b, items, func() *Hub {
			h, _ := openMultiOpts(b, b.TempDir(), w, Options{Store: "disk", HotClusterEntries: 4096, SnapshotEvery: 1024})
			return h
		})
	})
}

// openWorkload is what the recovery benchmarks log: four sources, six
// links, about 9,600 tuples.
func openWorkload() *datagen.MultiWorkload {
	return datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 4, Entities: 4000, PresenceFrac: 0.6,
		HomonymRate: 0.1, MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 1004,
	})
}

// openPhases sums RecoveryInfo's phases over a benchmark's opens.
type openPhases struct{ decode, replay, restore, fold time.Duration }

func (p *openPhases) add(info *RecoveryInfo) {
	p.decode += info.DecodeTime
	p.replay += info.ReplayTime
	p.restore += info.RestoreTime
	p.fold += info.FoldTime
}

// report reports each phase per op: decode-ns/op, replay-ns/op,
// restore-ns/op, fold-ns/op.
func (p *openPhases) report(b *testing.B) {
	for _, ph := range []struct {
		unit string
		d    time.Duration
	}{{"decode-ns/op", p.decode}, {"replay-ns/op", p.replay}, {"restore-ns/op", p.restore}, {"fold-ns/op", p.fold}} {
		b.ReportMetric(float64(ph.d.Nanoseconds())/float64(b.N), ph.unit)
	}
}

// BenchmarkOpenReplay is recovery from the write-ahead log alone: the
// workload is logged once, registrations and links first, with
// snapshots off, then every iteration opens the directory — read the log
// into the relations, build the six pairs, fold their tables — and closes
// it. The phases are RecoveryInfo's.
func BenchmarkOpenReplay(b *testing.B) {
	w := openWorkload()
	dir := b.TempDir()
	h, _ := openMultiOpts(b, dir, w, Options{})
	mustIngest(b, h, MultiInserts(w))
	if err := h.Close(); err != nil {
		b.Fatal(err)
	}
	replayed := 0
	var phases openPhases
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, info, err := openOn(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		replayed = info.Replayed
		phases.add(info)
		if err := h.Close(); err != nil {
			b.Fatal(err)
		}
	}
	if replayed == 0 {
		b.Fatal("nothing replayed")
	}
	b.ReportMetric(float64(replayed)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	phases.report(b)
}

// BenchmarkOpenSnapshot is recovery from a snapshot: the workload is
// ingested, SnapshotNow writes it and a short tail of fresh singletons
// is logged past it, then every iteration opens the directory — decode
// the runs, read the tail, build and verify the six pairwise
// federations, fold their tables into the cluster store once — and
// closes it. The disk leg's hot tier holds a small share of the
// clusters, so what the fold publishes spills. The phases are
// RecoveryInfo's.
func BenchmarkOpenSnapshot(b *testing.B) {
	w := openWorkload()
	const tail = 64
	for _, leg := range []struct {
		name string
		opts Options
	}{
		{"mem", Options{Store: "mem"}},
		{"disk", Options{Store: "disk", HotClusterEntries: 256}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			dir := b.TempDir()
			h, _ := openMultiOpts(b, dir, w, leg.opts)
			mustIngest(b, h, MultiInserts(w))
			if err := h.SnapshotNow(); err != nil {
				b.Fatal(err)
			}
			for k := range tail {
				if _, err := h.Insert(w.Names[k%len(w.Names)], freshTuple(k)); err != nil {
					b.Fatal(err)
				}
			}
			if err := h.Close(); err != nil {
				b.Fatal(err)
			}
			var phases openPhases
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, info, err := openOn(dir, leg.opts)
				if err != nil {
					b.Fatal(err)
				}
				if !info.FromSnapshot || info.Replayed != tail {
					b.Fatalf("opened %+v, want the snapshot and a tail of %d", info, tail)
				}
				phases.add(info)
				if err := h.Close(); err != nil {
					b.Fatal(err)
				}
			}
			phases.report(b)
		})
	}
}

// BenchmarkDecodeSegment is the segment decode phase for one segment
// file, as the snapshot loader reads it (readSegmentFile): the file read,
// its frames cut, its chunks read and its content hash checked against
// the manifest entry — a segment of 1,024 of openWorkload's tuples of one
// source, read against the source's schema, written once by the snapshot
// writer. ns, B and allocs are per item.
func BenchmarkDecodeSegment(b *testing.B) {
	w := openWorkload()
	rel := w.Relations[0]
	tuples := rel.Rows().Slice(0, snapSegItems)
	srcs := []snapSource{{Name: w.Names[0]}}
	b.Run("source", func(b *testing.B) {
		dir := b.TempDir()
		entry, err := newDirSink(wal.OS, dir, nil, snapSegItems).write(0, srcs, []relation.Rows{tuples}, 0)
		if err != nil {
			b.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := readSegmentFile(wal.OS, dir, 0, 0, nil, entry, []segSource{{w.Names[0], rel.Schema()}}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		items := float64(b.N * tuples.Len())
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/items, "ns/item")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/items, "B/item")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/items, "allocs/item")
	})
}

// BenchmarkSnapshotIncremental is SnapshotNow after about 1 % of the
// hub changed since the last snapshot — all of it in one source, or
// spread over every source the way a served hub's traffic is: the
// inserts run off the clock, the snapshot (capture, write of what is
// past the sealed segments, log truncation) on it. The hub is large
// enough that most of it is sealed. bytes-written/op and
// files-written/op are what each snapshot wrote (SnapshotStats); how many
// segments carry forward is pinned by snapshot_test.go.
func BenchmarkSnapshotIncremental(b *testing.B) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 4, Entities: 8000, PresenceFrac: 0.6,
		HomonymRate: 0.1, MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 1004,
	})
	items := MultiInserts(w)
	for _, leg := range []struct {
		name string
		into int
	}{{"one-source", 1}, {"all-sources", len(w.Names)}} {
		b.Run(leg.name, func(b *testing.B) {
			h, _ := openMultiOpts(b, b.TempDir(), w, Options{})
			defer h.Close()
			mustIngest(b, h, items)
			if err := h.SnapshotNow(); err != nil {
				b.Fatal(err)
			}
			delta := len(items)/100 + 1
			var bytes, files int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for k := 0; k < delta; k++ {
					if _, err := h.Insert(w.Names[k%leg.into], freshTuple(i*delta+k)); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := h.SnapshotNow(); err != nil {
					b.Fatal(err)
				}
				st := h.LastSnapshot()
				bytes, files = bytes+st.BytesWritten, files+int64(st.SectionsWritten)
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes-written/op")
			b.ReportMetric(float64(files)/float64(b.N), "files-written/op")
		})
	}
}

// BenchmarkServe is the read side. reads-during-ingest hammers point
// cluster reads from GOMAXPROCS-wide readers while a background
// committer streams the second half of the workload and then fresh
// singletons, so every timed read races a live commit however large
// b.N grows. clusters-stream walks the full paginated enumeration, one
// bounded page at a time and keeping no cluster (countPages), on the
// resident store and on the disk store.
func BenchmarkServe(b *testing.B) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 3, Entities: 400, PresenceFrac: 0.6, HomonymRate: 0.1,
		MissingPhone: 0.1, DirtyPhone: 0.2, Seed: 9,
	})
	items := MultiInserts(w)
	b.Run("reads-during-ingest", func(b *testing.B) {
		h, err := NewFromMulti(w)
		if err != nil {
			b.Fatal(err)
		}
		half := len(items) / 2
		mustIngest(b, h, items[:half])
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			for i := half; ; i++ {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				var it Insert
				if i < len(items) {
					it = items[i]
				} else {
					it = Insert{Source: w.Names[i%len(w.Names)], Tuple: freshTuple(i)}
				}
				if _, err := h.Insert(it.Source, it.Tuple); err != nil {
					done <- err
					return
				}
			}
		}()
		names := h.SourceNames()
		var seq atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(seq.Add(1)))
			for pb.Next() {
				src := names[rng.Intn(len(names))]
				n, err := h.SourceLen(src)
				if err != nil {
					b.Error(err)
					return
				}
				if n == 0 {
					continue
				}
				if _, err := h.ClusterAt(src, rng.Intn(n)); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		close(stop)
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	})
	for _, leg := range []struct {
		name string
		open func(b *testing.B) *Hub
	}{
		{"clusters-stream", func(b *testing.B) *Hub {
			h, err := NewFromMulti(w)
			if err != nil {
				b.Fatal(err)
			}
			return h
		}},
		// The disk store with room for a sixth of the clustered tuples: the
		// walk reads nearly every cluster's body through the tier.
		{"clusters-stream-disk", func(b *testing.B) *Hub {
			h, _ := openMultiOpts(b, b.TempDir(), w, Options{Store: "disk", HotClusterEntries: len(items) / 6})
			b.Cleanup(func() { h.Close() })
			return h
		}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			h := leg.open(b)
			mustIngest(b, h, items)
			b.ReportAllocs()
			b.ResetTimer()
			total := 0
			for i := 0; i < b.N; i++ {
				n, err := countPages(h, 128)
				if err != nil {
					b.Fatal(err)
				}
				total += n
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "clusters/sec")
		})
	}
}

// countPages walks the enumeration limit clusters a page, each page
// resuming at the cursor the last one handed out, and counts the
// clusters as it goes — it keeps none, as the daemon's scan renders each
// line and keeps none.
func countPages(h *Hub, limit int) (int, error) {
	total := 0
	for cursor := ""; ; {
		n := 0
		err := h.ClustersWalk(cursor, 0, func(_ Cluster, next string) bool {
			cursor, n = next, n+1
			return n != limit
		})
		total += n
		if err != nil || n < limit {
			return total, err
		}
	}
}
