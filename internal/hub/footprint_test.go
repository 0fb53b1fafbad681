package hub

import (
	"runtime"
	"testing"

	"entityid/internal/datagen"
)

// residentCeiling is the live heap a committed tuple may cost a
// memory-store hub of four fully linked sources, in bytes, the hub's
// alone. On this workload: 274 with each tuple's cells flat in the
// relation's cell blocks — 16 bytes a cell and no pointer, its strings
// (49 B of it) in the relation's string blocks — and one image per
// source and knowledge, its derived cells flat too and each derived
// string held once, beside a commit run's working memory (a window of
// slots reused from run to run: fixed, 4 B a tuple at this size); the
// disk store with a hot tier of 256 entries reads 268. 377 (disk 371)
// while each cell was a 32-byte value.Value and each tuple a row header
// over them; 373 before the run's memory; 391 while each value block
// left its size class's slack unused; 357 while the hub cloned each
// tuple's cells and kept the caller's strings, which this workload's
// tuples share. Read with the caller's copies live too, the figures were
// 322 for that hub; 436 with an image and a probe index per pair side,
// three per tuple; 466 before a scan read cluster records by tuple
// position; 600 with each matching table a pair slice beside a pair set
// and two postings maps; 1,500 with the images whole rows and each index
// keyed by a joined string; 2,111 with each image a second copy filed
// under its own copy of the source's key strings; 3,101 with every pair
// holding clones of its two sides. The ceiling sits about 10 % over the
// flat cells, below a row header or a pointer-holding cell coming back —
// on any path: Link, insert, recovery. It is the first row of the
// README's per-tuple byte budget; lower it when the next owner is cut.
const residentCeiling = 300

// TestResidentBytesPerTuple streams a fixed 4-source workload into a
// hub and divides what the heap then holds by the tuples committed, in
// two legs: a resident hub (the memory store, ceiling residentCeiling)
// and a durable one over the disk store with a hot tier of 256 cluster
// entries, which is logged beside it. The first reading is taken before
// the workload is generated, and the workload and its items are dead by
// the second, so the difference is the hub's alone: the hub keeps its
// own copy of every tuple, strings included, and a caller's copy that
// outlives it is not the hub's cost. Not parallel: the reading is the
// process's live heap.
func TestResidentBytesPerTuple(t *testing.T) {
	for _, leg := range []struct {
		name string
		opts *Options
	}{{"mem", nil}, {"disk", &Options{Store: "disk", HotClusterEntries: 256}}} {
		t.Run(leg.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			h := residentHub(t, leg.opts)
			defer h.Close()
			runtime.GC()
			runtime.ReadMemStats(&after)
			st := h.Stats()
			if st.Tuples < 20000 || st.Matches < st.Tuples/2 {
				t.Fatalf("workload too small or too sparse to mean anything: %+v", st)
			}
			per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(st.Tuples)
			t.Logf("%s: %d tuples, %d pairwise matches: %.0f B live heap per tuple (ceiling %d on the memory store)", leg.name, st.Tuples, st.Matches, per, residentCeiling)
			if leg.opts == nil && per > residentCeiling {
				t.Fatalf("%.0f B resident per tuple, ceiling %d: something holds a second copy of the sources' tuples, an image or an index per pair, or a key string per index, or the cell grew", per, residentCeiling)
			}
		})
	}
}

// residentHub is TestResidentBytesPerTuple's hub — resident under nil
// opts, else durable under opts in a directory of the test's — the
// workload streamed in; the workload and its items die with the call.
func residentHub(t *testing.T, opts *Options) *Hub {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 4, Entities: 9000, PresenceFrac: 0.6,
		HomonymRate: 0.1, MissingPhone: 0.1, DirtyPhone: 0.2,
		Seed: 1704,
	})
	var h *Hub
	if opts == nil {
		var err error
		if h, err = NewFromMulti(w); err != nil {
			t.Fatal(err)
		}
	} else {
		h, _ = openMultiOpts(t, t.TempDir(), w, *opts)
	}
	for _, res := range h.IngestBatch(MultiInserts(w)) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	return h
}
