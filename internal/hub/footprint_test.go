package hub

import (
	"runtime"
	"testing"

	"entityid/internal/datagen"
)

// residentCeiling is the live heap a committed tuple may cost a
// memory-store hub of four fully linked sources, in bytes. On this
// workload: 322 with one image — derived cells and probe index — per
// source and knowledge, which the source's three links share; 436 with
// an image and a probe index per pair side, three per tuple; 466 before
// a scan read cluster records by tuple position; 600 with each matching
// table a pair slice beside a pair set and two postings maps; 1,500 with
// the images whole rows and each index keyed by a joined string; 2,111
// with each image a second copy filed under its own copy of the source's
// key strings; 3,101 with every pair holding clones of its two sides.
// The ceiling sits between the first two figures, so an image or an
// index per pair coming back — on any path: Link, insert, recovery —
// fails here. It is the first row of the README's per-tuple byte budget;
// lower it when the next owner is cut.
const residentCeiling = 400

// TestResidentBytesPerTuple streams a fixed 4-source workload into a
// resident hub and divides what the heap then holds by the tuples
// committed. Not parallel: the reading is the process's live heap.
func TestResidentBytesPerTuple(t *testing.T) {
	w := datagen.MustMultiGenerate(datagen.MultiConfig{
		Sources: 4, Entities: 9000, PresenceFrac: 0.6,
		HomonymRate: 0.1, MissingPhone: 0.1, DirtyPhone: 0.2,
		Seed: 1704,
	})
	items := MultiInserts(w)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h, err := NewFromMulti(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range h.IngestBatch(items) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The workload and the items are live across both readings, so the
	// difference is the hub's alone.
	runtime.KeepAlive(w)
	runtime.KeepAlive(items)
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
