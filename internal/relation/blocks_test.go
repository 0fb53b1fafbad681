package relation

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"entityid/internal/value"
)

// keptString is the string attribute a of tuple i in these tests: its
// length cycles through 0..600 bytes, and every 50th is longer than a
// string block (5,000 bytes).
func keptString(i, a int) string {
	n := (i * 37 % 7) * 100
	if i%50 == 49 {
		n = 5000
	}
	return strings.Repeat(string(rune('a'+(i+a)%26)), n) + fmt.Sprint(i)
}

// keptTuple is tuple i over kindsSchema(string, int, string).
func keptTuple(i int) Tuple {
	return Tuple{value.String(keptString(i, 0)), value.Int(int64(i)), value.String(keptString(i, 1))}
}

// TestInsertKeepsItsOwnCopy holds Insert and InsertAdmitted to filing a
// copy: overwriting the caller's tuple or the array under it changes
// nothing the relation holds, every string reads back byte for byte,
// and a string that is a few bytes of a large one does not keep the
// large one alive. A relation that kept the caller's tuple fails the
// first; one that kept the caller's strings, the last.
func TestInsertKeepsItsOwnCopy(t *testing.T) {
	sch := kindsSchema(value.KindString, value.KindInt, value.KindString)
	r := New(sch)
	cells := make([]value.Value, 0, 3*200)
	for i := range 200 {
		tup := append(cells[len(cells):], keptTuple(i)...)
		cells = cells[:len(cells)+3]
		if i%2 == 0 {
			if err := r.Insert(tup); err != nil {
				t.Fatal(err)
			}
		} else {
			a, err := r.Admit(tup)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.InsertAdmitted(a); err != nil {
				t.Fatal(err)
			}
		}
		tup[0], tup[2] = value.String("overwritten"), value.Null
	}
	for i := range cells {
		cells[i] = value.Int(-1)
	}
	for i := range r.Len() {
		if got := r.Tuple(i); !got.Identical(keptTuple(i)) {
			t.Fatalf("tuple %d reads %.40v after the caller overwrote its copy, want %.40v", i, got, keptTuple(i))
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	small := New(sch)
	func() {
		big := strings.Repeat("x", 1<<20)
		for i := range 8 {
			if err := small.Insert(Tuple{value.String(big[i : i+10]), value.Int(int64(i)), value.Null}); err != nil {
				t.Fatal(err)
			}
		}
	}()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<18 {
		t.Fatalf("8 tuples of 10-byte strings cut from a 1 MiB string hold %d bytes once the string is dropped: the relation keeps the caller's strings", grew)
	}
	for i := range small.Len() {
		if s := small.At(i, 0).Str(); s != strings.Repeat("x", 10) {
			t.Fatalf("tuple %d holds %q", i, s)
		}
	}
	runtime.KeepAlive(small)
}

// TestKeptTupleShape holds every tuple a relation files — inserted, or
// copied by Clone — to capacity = length = arity across value and string
// block boundaries, strings of up to 5,000 bytes among them: appending
// to one tuple never reaches the next. A relation whose tuples keep the
// block's capacity fails it.
func TestKeptTupleShape(t *testing.T) {
	r := New(kindsSchema(value.KindString, value.KindInt, value.KindString))
	const n = 300
	for i := range n {
		if err := r.Insert(keptTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	for name, rel := range map[string]*Relation{"inserted": r, "cloned": r.Clone()} {
		for i, tup := range rel.Tuples() {
			if len(tup) != 3 || cap(tup) != 3 {
				t.Fatalf("%s tuple %d: len %d cap %d, want 3 and 3", name, i, len(tup), cap(tup))
			}
			_ = append(tup, value.String("spill"))
		}
		for i, tup := range rel.Tuples() {
			if !tup.Identical(keptTuple(i)) {
				t.Fatalf("%s tuple %d reads %.40v after appends to every tuple, want %.40v", name, i, tup, keptTuple(i))
			}
		}
	}
}

// TestSmallRelationBlocks holds a relation of k < 64 tuples to value
// blocks for at most 2k tuples: its blocks start at one tuple and
// double. The blocks' bytes are what k inserts allocate beyond the same
// k filed uncopied (KeepAdmitted), held to what one allocation of 2k
// tuples' cells costs, plus an eighth for the size classes that round
// each block up. A relation that starts at a full 64-tuple block fails
// it.
func TestSmallRelationBlocks(t *testing.T) {
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var sink Tuple
	for _, arity := range []int{1, 4, 16} {
		kinds := make([]value.Kind, arity)
		for i := range kinds {
			kinds[i] = value.KindInt
		}
		sch := kindsSchema(kinds...)
		tup := make(Tuple, arity)
		for i := range tup {
			tup[i] = value.Int(int64(i))
		}
		// fill files k tuples into a bag through file.
		fill := func(k int, file func(*Relation, Admission) error) {
			r := NewBag(sch)
			for range k {
				a, err := r.Admit(tup)
				if err == nil {
					err = file(r, a)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		for k := 1; k < tuplesPerBlock; k++ {
			got := allocated(func() { fill(k, (*Relation).InsertAdmitted) }) - allocated(func() { fill(k, (*Relation).KeepAdmitted) })
			limit := allocated(func() { sink = slices.Grow(Tuple(nil), 2*k*arity) }) * 9 / 8
			if got > limit {
				t.Fatalf("arity %d: %d tuples allocate %d bytes of value blocks, want at most %d (2k tuples' cells and size-class slack)", arity, k, got, limit)
			}
		}
	}
	runtime.KeepAlive(sink)
}

// TestReadersWhileFiling reads a relation's published tuples, every cell
// and every string byte, while inserts file more into the same value and
// string blocks, the way the hub's readers read a source's published
// view: run under -race, a write into a block cell or a string byte a
// published tuple holds is reported. A relation that filed a tuple over
// cells it had already handed out fails it.
func TestReadersWhileFiling(t *testing.T) {
	r := New(kindsSchema(value.KindString, value.KindInt, value.KindString))
	var view atomic.Pointer[[]Tuple]
	view.Store(new([]Tuple))
	want := make([]Tuple, 2000)
	for i := range want {
		want[i] = keptTuple(i)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for i, tup := range *view.Load() {
					if !tup.Identical(want[i]) {
						t.Errorf("published tuple %d reads %.40v, want %.40v", i, tup, want[i])
						return
					}
				}
			}
		}()
	}
	for _, tup := range want {
		if err := r.Insert(tup); err != nil {
			t.Fatal(err)
		}
		ts := r.Tuples()
		view.Store(&ts)
	}
	close(done)
	wg.Wait()
}
