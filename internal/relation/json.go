// The tuple codec: a tuple is a JSON array of scalars, its only
// serialised form — the request line's "tuple", every served member and
// every run record (internal/wal/run.go), in the log and in a snapshot,
// hold these bytes. A schema fixes every attribute's domain
// (§3), so the array carries no kinds: ParseTupleJSON reads against the
// schema the reader already has. What AppendTupleJSON writes reads back
// as itself (NULL, "", "null", −0, NaN, ±Inf, the int64 extremes), but
// for a string that is not UTF-8, which writers refuse first
// (InvalidUTF8).
package relation

import (
	"fmt"
	"slices"
	"unicode/utf8"

	"entityid/internal/schema"
	"entityid/internal/value"
)

// AppendTupleJSON appends t as a JSON array of scalars.
func AppendTupleJSON(b []byte, t Tuple) []byte {
	b = append(b, '[')
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		b = value.AppendJSON(b, v)
	}
	return append(b, ']')
}

// AppendTuplesJSON appends ts as a JSON array of tuples.
func AppendTuplesJSON(b []byte, ts []Tuple) []byte {
	b = append(b, '[')
	for i, t := range ts {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendTupleJSON(b, t)
	}
	return append(b, ']')
}

// InvalidUTF8 returns the position of t's first string value that is
// not valid UTF-8, or -1: JSON cannot spell such a string, so the codec
// would read back a different one.
func (t Tuple) InvalidUTF8() int {
	for i, v := range t {
		if v.Kind() == value.KindString && !utf8.ValidString(v.Str()) {
			return i
		}
	}
	return -1
}

func skipSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\n' || b[0] == '\r') {
		b = b[1:]
	}
	return b
}

// element steps over the array punctuation before an element — '['
// before the first, ',' before the others — and reports false once the
// closing ']' is consumed instead.
func element(b []byte, first bool) (rest []byte, ok bool, err error) {
	want := byte(',')
	if first {
		want = '['
	}
	if b = skipSpace(b); !first && len(b) > 0 && b[0] == ']' {
		return b[1:], false, nil
	}
	if len(b) == 0 || b[0] != want {
		return b, false, fmt.Errorf("want %q in a JSON array", want)
	}
	if b = skipSpace(b[1:]); first && len(b) > 0 && b[0] == ']' {
		return b[1:], false, nil
	}
	return b, true, nil
}

// ParseTupleJSON reads b, a JSON array of scalars and nothing else, as a
// tuple over sch: one scalar per attribute, each read as its attribute's
// kind by value.ParseJSON.
func ParseTupleJSON(sch *schema.Schema, b []byte) (Tuple, error) {
	t, rest, err := parseTuple(make(Tuple, 0, sch.Arity()), sch, b, nil)
	if err == nil && len(skipSpace(rest)) > 0 {
		return nil, fmt.Errorf("trailing bytes after the JSON array")
	}
	return t, err
}

// parseTuple reads the tuple at the front of b into t, empty with room
// for sch's arity, and returns what follows it; its plain strings are cut
// from strs, or allocated alone when strs is nil.
func parseTuple(t Tuple, sch *schema.Schema, b []byte, strs *value.StringBlocks) (Tuple, []byte, error) {
	for first := true; ; first = false {
		var ok bool
		var err error
		if b, ok, err = element(b, first); err != nil {
			return nil, b, err
		} else if !ok {
			break
		}
		if len(t) == sch.Arity() {
			return nil, b, fmt.Errorf("more than %d values, schema wants %[1]d", sch.Arity())
		}
		a := sch.Attr(len(t))
		var v value.Value
		if v, b, err = strs.ParseJSON(b, a.Kind); err != nil {
			return nil, b, fmt.Errorf("attribute %q: %w", a.Name, err)
		}
		t = append(t, v)
	}
	if len(t) != sch.Arity() {
		return nil, b, fmt.Errorf("%d values, schema wants %d", len(t), sch.Arity())
	}
	return t, b, nil
}

// tuplesPerBlock is how many tuples' values a decoder's TupleBlocks ask
// one allocation for, and the most a relation's blocks ask for.
const tuplesPerBlock = 64

// TupleBlocks holds tuples in shared blocks: their values in blocks of
// tuplesPerBlock tuples or so — one allocation for 64 tuples, not 64,
// and as many fewer objects for the collector to mark — each tuple's
// capacity its arity, so an append to one never reaches the next; and
// their strings in shared blocks too (value.StringBlocks). It is where
// every tuple a relation holds lies. A decoder reads tuples into blocks
// of its own (ParseJSON, whole blocks at a time) and hands them over to
// a relation uncopied (InsertAll, KeepAdmitted); a relation files a copy
// of any other tuple into its own (InsertAdmitted), which start at one
// tuple's worth and double. The zero value is ready to use.
type TupleBlocks struct {
	block Tuple
	strs  value.StringBlocks
	// tuples is how many tuples the last block keep started asked for.
	tuples int
}

// room makes sure the value block has n cells left, starting a block
// for tuples tuples of arity n when it does not. The block is as long as
// the allocation the runtime rounds it up to: a block of pointer-holding
// cells carries an 8-byte header past 512 bytes, so 64 tuples of 128
// bytes take a 9,472-byte size class, and what would be slack holds 9
// tuples more.
func (tb *TupleBlocks) room(n, tuples int) {
	if len(tb.block) < n {
		b := slices.Grow(Tuple(nil), tuples*n)
		tb.block = b[:cap(b)]
	}
}

// keep returns a copy of t cut from the blocks, its strings copied into
// the string blocks, all of one tuple's strings into one block. A block
// keep starts asks for twice the tuples of the last one, up to
// tuplesPerBlock.
func (tb *TupleBlocks) keep(t Tuple) Tuple {
	n := len(t)
	if len(tb.block) < n {
		tb.tuples = min(tuplesPerBlock, max(1, 2*tb.tuples))
		tb.room(n, tb.tuples)
	}
	kept := tb.block[:n:n]
	tb.block = tb.block[n:]
	want := 0
	for _, v := range t {
		if v.Kind() == value.KindString {
			want += len(v.Str())
		}
	}
	for i, v := range t {
		if v.Kind() == value.KindString {
			s := v.Str()
			v = value.String(tb.strs.Copy(s, want))
			want -= len(s)
		}
		kept[i] = v
	}
	return kept
}

// ParseJSON reads b, a JSON array of scalars and nothing else, as a tuple
// over sch, with ParseTupleJSON's results.
func (tb *TupleBlocks) ParseJSON(sch *schema.Schema, b []byte) (Tuple, error) {
	t, rest, err := tb.parse(sch, b)
	if err == nil && len(skipSpace(rest)) > 0 {
		return nil, fmt.Errorf("trailing bytes after the JSON array")
	}
	return t, err
}

// parse reads the tuple at the front of b and returns what follows it.
func (tb *TupleBlocks) parse(sch *schema.Schema, b []byte) (Tuple, []byte, error) {
	n := sch.Arity()
	tb.room(n, tuplesPerBlock)
	t, rest, err := parseTuple(tb.block[:0:n], sch, b, &tb.strs)
	if err == nil {
		tb.block = tb.block[n:]
	}
	return t, rest, err
}

// ParseTuplesJSON reads b, a JSON array of tuples over sch and nothing
// else, into the blocks, appending the tuples to dst: a snapshot run's
// 1,024 tuples take 16 allocations for their values, not 1,024, and a
// log's runs of one share the decoder's blocks. On an error dst comes
// back as it was given.
func (tb *TupleBlocks) ParseTuplesJSON(sch *schema.Schema, dst []Tuple, b []byte) ([]Tuple, error) {
	ts := dst
	for first := true; ; first = false {
		var ok bool
		var err error
		if b, ok, err = element(b, first); err != nil {
			return dst, err
		} else if !ok {
			break
		}
		var t Tuple
		if t, b, err = tb.parse(sch, b); err != nil {
			return dst, fmt.Errorf("tuple %d: %w", len(ts)-len(dst), err)
		}
		ts = append(ts, t)
	}
	if len(skipSpace(b)) > 0 {
		return dst, fmt.Errorf("trailing bytes after the JSON array")
	}
	return ts, nil
}
