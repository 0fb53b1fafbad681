package hub

import (
	"runtime"
	"testing"

	"entityid/internal/datagen"
)

// residentCeiling is the live heap a committed tuple may cost a
// memory-store hub of four fully linked sources, in bytes, the hub's
// alone. On this workload: 377 with the hub's own copy of each tuple —
// its cells in the relation's value blocks, its strings (49 B of it) in
// the relation's string blocks — and one image — derived cells and probe
// index — per source and knowledge, which the source's three links
// share, beside a commit run's working memory (a window of slots reused
// from run to run: fixed, 4 B a tuple at this size); 373 before that
// memory; 391 while each value block left its size class's slack unused;
// 357 while the hub cloned each tuple's cells and kept the caller's
// strings, which this workload's tuples share. Read with the caller's
// copies live too, the figures were 322 for that hub; 436 with an image
// and a probe index per pair side, three per tuple; 466 before a scan
// read cluster records by tuple position; 600 with each matching table a
// pair slice beside a pair set and two postings maps; 1,500 with the
// images whole rows and each index keyed by a joined string; 2,111 with
// each image a second copy filed under its own copy of the source's key
// strings; 3,101 with every pair holding clones of its two sides. The
// ceiling sits below an image and a probe index per pair side, so one
// coming back — on any path: Link, insert, recovery — fails here. It is
// the first row of the README's per-tuple byte budget; lower it when the
// next owner is cut.
const residentCeiling = 400

// TestResidentBytesPerTuple streams a fixed 4-source workload into a
// resident hub and divides what the heap then holds by the tuples
// committed. The first reading is taken before the workload is
// generated, and the workload and its items are dead by the second, so
// the difference is the hub's alone: the hub keeps its own copy of every
// tuple, strings included, and a caller's copy that outlives it is not
// the hub's cost. Not parallel: the reading is the process's live heap.
func TestResidentBytesPerTuple(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := residentHub(t)
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := h.Stats()
	if st.Tuples < 20000 || st.Matches < st.Tuples/2 {
		t.Fatalf("workload too small or too sparse to mean anything: %+v", st)
	}
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(st.Tuples)
	t.Logf("%d tuples, %d pairwise matches: %.0f B live heap per tuple (ceiling %d)", st.Tuples, st.Matches, per, residentCeiling)
	if per > residentCeiling {
		t.Fatalf("%.0f B resident per tuple, ceiling %d: something holds a second copy of the sources' tuples, an image or an index per pair, or a key string per index, or the value cell grew", per, residentCeiling)
	}
}

// residentHub is TestResidentBytesPerTuple's hub, the workload streamed
// in; the workload and its items die with the call.
func residentHub(t *testing.T) *Hub {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 4, Entities: 9000, PresenceFrac: 0.6,
		HomonymRate: 0.1, MissingPhone: 0.1, DirtyPhone: 0.2,
		Seed: 1704,
	})
	h, err := NewFromMulti(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range h.IngestBatch(MultiInserts(w)) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	return h
}
