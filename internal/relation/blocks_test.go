package relation

import (
	"fmt"
	"runtime"
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

// TestKeptTupleShape holds every tuple a relation hands out — inserted,
// or copied by Clone — to capacity = length = arity across cell and
// string block boundaries, strings of up to 5,000 bytes among them:
// appending to one materialised tuple never reaches the next.
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

// TestSmallRelationBlocks holds a relation of k < blockRows tuples to
// cell blocks for fewer than 2k rows, and of more to one block of
// blockRows rows per blockRows past the first firstRows: its blocks start
// at one row and double, and none is copied as it grows. A relation that
// starts at a full block fails it.
func TestSmallRelationBlocks(t *testing.T) {
	for _, arity := range []int{1, 4, 16} {
		kinds := make([]value.Kind, arity)
		for i := range kinds {
			kinds[i] = value.KindInt
		}
		tup := make(Tuple, arity)
		for i := range tup {
			tup[i] = value.Int(int64(i))
		}
		r := NewBag(kindsSchema(kinds...))
		for k := 1; k <= 3*blockRows; k++ {
			if err := r.Insert(tup); err != nil {
				t.Fatal(err)
			}
			cells := 0
			for _, b := range r.blocks.blocks {
				cells += len(b)
			}
			limit := 2 * k * arity
			if k > blockRows {
				limit = (firstRows + (k-firstRows+blockRows-1)/blockRows*blockRows) * arity
			}
			if cells > limit {
				t.Fatalf("arity %d: %d tuples lie in blocks of %d cells, want at most %d", arity, k, cells, limit)
			}
		}
		for i := range r.Len() {
			if !r.Tuple(i).Identical(tup) {
				t.Fatalf("arity %d: tuple %d reads %v", arity, i, r.Tuple(i))
			}
		}
	}
}

// TestReadersWhileFiling reads a relation's published rows, every cell
// and every string byte, while inserts file more into the same cell and
// string blocks, the way the hub's readers read a source's published
// view: run under -race, a write into a block cell or a string byte a
// published tuple holds is reported. A relation that filed a tuple over
// cells it had already handed out fails it.
func TestReadersWhileFiling(t *testing.T) {
	r := New(kindsSchema(value.KindString, value.KindInt, value.KindString))
	var view atomic.Pointer[Rows]
	view.Store(new(Rows))
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
				rows := view.Load()
				var tup Tuple
				for i := range rows.Len() {
					if tup = rows.TupleInto(tup, i); !tup.Identical(want[i]) {
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
		rows := r.Rows()
		view.Store(&rows)
	}
	close(done)
	wg.Wait()
}
