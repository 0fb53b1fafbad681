package relation

// The hashed key index against what it replaced and against what it is
// for. On values free of the bytes a joined key is made of, a relation
// must answer — Admit's verdict and its text, LookupKey's position —
// exactly as the string-keyed maps of the relation it replaced did
// (refIndex, kept here as the reference); on values made of those bytes
// the maps are wrong and the reference is the definition itself, a
// nested loop over the rows under the key's identity. Both, again, with
// every hash the same: every chain a collision chain, every answer the
// verification's alone.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"entityid/internal/schema"
	"entityid/internal/value"
)

// constantMix makes every projection hash alike.
func constantMix(uint64, value.Value) uint64 { return 0 }

// TestPosIndexChains: a chain hands out exactly the positions filed
// under its hash, newest first; an unfiled position is on none.
func TestPosIndexChains(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, hashes := range []int{1, 3, 50} {
		ix := NewPosIndex()
		want := map[uint64][]int{}
		for pos := 0; pos < 400; pos++ {
			h, filed := uint64(rng.Intn(hashes)), rng.Intn(5) > 0
			ix.Add(h, filed)
			if filed {
				want[h] = append([]int{pos}, want[h]...)
			}
		}
		if len(ix.prev) != 400 {
			t.Fatalf("%d positions taken, want 400", len(ix.prev))
		}
		for h := uint64(0); h <= uint64(hashes); h++ {
			var got []int
			for pos := ix.Last(h); pos >= 0; pos = ix.Prev(pos) {
				got = append(got, pos)
			}
			if fmt.Sprint(got) != fmt.Sprint(want[h]) {
				t.Errorf("%d hashes: chain of %d is %v, filed under it were %v", hashes, h, got, want[h])
			}
		}
	}
	// One projection, one hash — whichever way it is handed over — and
	// canonical forms hash alike.
	ix := NewPosIndex()
	tup := Tuple{value.Int(7), value.String("x"), value.Float(math.Copysign(0, -1))}
	if ix.Hash(tup, []int{2, 1}) != ix.Hash(Tuple{value.Float(0), value.String("x")}, nil) {
		t.Error("a projection under columns and the same values handed over bare hash apart")
	}
	if ix.Hash(tup, []int{0, 1}) == ix.Hash(tup, []int{1, 0}) || ix.Hash(Tuple{value.Int(1)}, nil) == ix.Hash(Tuple{value.Float(1)}, nil) {
		t.Error("the hash does not tell column order, or an int from a float, apart")
	}
}

// refIndex is the key index this package had: per candidate key, a map
// from the projection joined into one string to the last position.
type refIndex struct {
	sch     *schema.Schema
	keyCols [][]int
	idx     []map[string]int
	bag     bool
	n       int
}

func newRefIndex(sch *schema.Schema, bag bool) *refIndex {
	ref := &refIndex{sch: sch, bag: bag}
	for _, key := range sch.Keys() {
		cols := make([]int, len(key))
		for i, a := range key {
			cols[i] = sch.Index(a)
		}
		ref.keyCols, ref.idx = append(ref.keyCols, cols), append(ref.idx, map[string]int{})
	}
	return ref
}

func refProjection(vals Tuple, cols []int) (string, bool) {
	n := len(cols)
	if cols == nil {
		n = len(vals)
	}
	parts := make([]string, n)
	for i := range parts {
		v := projected(vals, cols, i)
		if v.IsNull() {
			return "", false
		}
		parts[i] = v.Key()
	}
	return strings.Join(parts, "\x1f"), true
}

// insert is the old Admit + InsertAdmitted for a tuple of the right
// shape: the refusal text, or "" and the tuple is in.
func (ref *refIndex) insert(t Tuple) string {
	projs := make([]string, len(ref.keyCols))
	for ki, cols := range ref.keyCols {
		proj, full := refProjection(t, cols)
		if !full {
			continue
		}
		if at, dup := ref.idx[ki][proj]; dup && !ref.bag {
			return fmt.Sprintf("relation %s: key (%s) violation: tuple %v duplicates tuple %d",
				ref.sch.Name(), strings.Join(ref.sch.Keys()[ki], ","), t, at)
		}
		projs[ki] = proj
	}
	for ki, proj := range projs {
		if proj != "" {
			ref.idx[ki][proj] = ref.n
		}
	}
	ref.n++
	return ""
}

func (ref *refIndex) lookup(keyVals []value.Value) int {
	if len(keyVals) != len(ref.keyCols[0]) {
		return -1
	}
	if proj, full := refProjection(keyVals, nil); full {
		if pos, ok := ref.idx[0][proj]; ok {
			return pos
		}
	}
	return -1
}

// nestedLookup is LookupKey by definition: the last row whose key columns
// are, one by one, the given values — same kind, same canonical form, and
// no NULL.
func nestedLookup(rows []Tuple, cols []int, keyVals []value.Value) int {
	if len(keyVals) != len(cols) {
		return -1
	}
rows:
	for pos := len(rows) - 1; pos >= 0; pos-- {
		for i, c := range cols {
			if keyVals[i].IsNull() || rows[pos][c].Canon() != keyVals[i].Canon() {
				continue rows
			}
		}
		return pos
	}
	return -1
}

// keyWorld is one random schema (a string, an int and a float column and
// a payload, under one or two candidate keys of one or two columns) and
// the domains its tuples and probes are drawn from.
type keyWorld struct {
	sch     *schema.Schema
	strings []string
	rng     *rand.Rand
}

func newKeyWorld(rng *rand.Rand, strs []string) keyWorld {
	keys := [][][]string{
		{{"s"}}, {{"i"}}, {{"f"}}, {{"s", "t"}}, {{"s", "i"}}, {{"f", "s"}},
		{{"s", "t"}, {"i"}}, {{"i"}, {"f", "t"}},
	}[rng.Intn(8)]
	sch := schema.MustNew("K", []schema.Attribute{
		{Name: "s", Kind: value.KindString}, {Name: "t", Kind: value.KindString},
		{Name: "i", Kind: value.KindInt}, {Name: "f", Kind: value.KindFloat},
		{Name: "payload", Kind: value.KindString},
	}, keys...)
	return keyWorld{sch: sch, strings: strs, rng: rng}
}

// val draws a value of kind k: a tenth NULL, the rest from a domain small
// enough that keys repeat — for a float, both zeros and NaN.
func (w keyWorld) val(k value.Kind) value.Value {
	if w.rng.Intn(10) == 0 {
		return value.Null
	}
	switch k {
	case value.KindString:
		return value.String(w.strings[w.rng.Intn(len(w.strings))])
	case value.KindInt:
		return value.Int(int64(w.rng.Intn(12)))
	default:
		return value.Float([]float64{0, math.Copysign(0, -1), 1, 2, math.NaN(), math.Inf(1), -1, 0.5, 3, 4}[w.rng.Intn(10)])
	}
}

func (w keyWorld) tuple() Tuple {
	t := make(Tuple, w.sch.Arity())
	for c := range t {
		t[c] = w.val(w.sch.Attr(c).Kind)
	}
	return t
}

// probe draws values to look the primary key up under: mostly of the
// key's kinds, sometimes another kind's (an int 1 is not the float 1), a
// string's empty twin of NULL, or one value too few.
func (w keyWorld) probe() []value.Value {
	var out []value.Value
	for _, a := range w.sch.PrimaryKey() {
		k := w.sch.KindOf(a)
		if w.rng.Intn(8) == 0 {
			k = []value.Kind{value.KindString, value.KindInt, value.KindFloat}[w.rng.Intn(3)]
		}
		out = append(out, w.val(k))
	}
	if w.rng.Intn(20) == 0 {
		out = out[:len(out)-1]
	}
	return out
}

// plain are strings no joined key is confused by ("" beside NULL
// included); hostile are made of what one is joined with.
var (
	plainStrings   = []string{"", "a", "b", "ab", "1", "null"}
	hostileStrings = []string{"", "x", "y", "x\x1fs:y", "y\x1fs:x", "\x1fs:", "\x1f", "s:", "s:x", "i:1", "\x00", "x\x1f"}
)

// TestKeyIndexEqualsItsReferences runs the same random inserts and
// lookups through a relation and through the reference, under the real
// hash and under one that collides always, as a set and as a bag.
func TestKeyIndexEqualsItsReferences(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hostile, collide, bag := seed%2 == 0, seed%3 == 0, seed%5 == 0
		strs := plainStrings
		if hostile {
			strs = hostileStrings
		}
		w := newKeyWorld(rng, strs)
		r, ref := New(w.sch), newRefIndex(w.sch, bag)
		r.bag = bag
		if collide {
			for ki := range r.keyIdx {
				r.keyIdx[ki] = newPosIndex(constantMix)
			}
		}
		for step := 0; step < 120; step++ {
			if rng.Intn(3) > 0 {
				tup := w.tuple()
				err := r.Insert(tup)
				switch {
				case !hostile:
					if want := ref.insert(tup); (err == nil) != (want == "") || (err != nil && err.Error() != want) {
						t.Fatalf("seed %d step %d: Insert(%v) = %v, the string-keyed index says %q", seed, step, tup, err, want)
					}
				default:
					// By definition: refused exactly when a set holds a row that
					// is the tuple's on some fully non-NULL candidate key.
					dup := -1
					for ki := len(r.keyCols) - 1; ki >= 0; ki-- {
						vals := make([]value.Value, len(r.keyCols[ki]))
						for i, c := range r.keyCols[ki] {
							vals[i] = tup[c]
						}
						rows := r.tuples
						if err == nil {
							rows = rows[:len(rows)-1]
						}
						if at := nestedLookup(rows, r.keyCols[ki], vals); at >= 0 && !bag {
							dup = at
						}
					}
					if (err == nil) != (dup < 0) || (err != nil && !strings.HasSuffix(err.Error(), fmt.Sprintf("duplicates tuple %d", dup))) {
						t.Fatalf("seed %d step %d: Insert(%v) = %v, a nested loop finds its duplicate at %d", seed, step, tup, err, dup)
					}
				}
				continue
			}
			key := w.probe()
			got, want := r.LookupKey(key...), nestedLookup(r.tuples, r.keyCols[0], key)
			if !hostile {
				if old := ref.lookup(key); old != want {
					t.Fatalf("seed %d step %d: the references disagree on LookupKey(%v): string-keyed %d, nested loop %d", seed, step, key, old, want)
				}
			}
			if got != want {
				t.Fatalf("seed %d step %d: LookupKey(%v) = %d, want %d (hostile %v, constant hash %v, bag %v)", seed, step, key, got, want, hostile, collide, bag)
			}
		}
		if r.Len() < 6 {
			t.Fatalf("seed %d: only %d tuples got in: the domains are too small to mean anything", seed, r.Len())
		}
		// A clone and a sorted clone index the same keys.
		c := r.Clone()
		if err := c.Sort("payload"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			key := w.probe()
			if got, want := c.LookupKey(key...), nestedLookup(c.tuples, c.keyCols[0], key); got != want {
				t.Fatalf("seed %d: sorted clone: LookupKey(%v) = %d, want %d", seed, key, got, want)
			}
		}
	}
}

// TestLookupKeyAllocatesNothing: a key probe builds no string any more.
func TestLookupKeyAllocatesNothing(t *testing.T) {
	r := mkTable1R(t)
	hit := []value.Value{value.String("Ching"), value.String("Co.B Rd.")}
	miss := []value.Value{value.String("Ching"), value.String("Elm St.")}
	if avg := testing.AllocsPerRun(100, func() {
		if r.LookupKey(hit...) != 1 || r.LookupKey(miss...) != -1 {
			t.Fatal("wrong answer")
		}
	}); avg != 0 {
		t.Errorf("LookupKey allocates %.1f times", avg)
	}
}
