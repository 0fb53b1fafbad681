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

// AppendRowJSON appends row i as a JSON array of scalars, the bytes
// AppendTupleJSON writes for the same tuple, each cell rendered where it
// lies: no value is built for a string, and a verbatim one is one copy.
//
//entitylint:hotpath nolock,noobs,noio
func (r *Rows) AppendRowJSON(b []byte, i int) []byte {
	if r.list != nil {
		return AppendTupleJSON(b, r.list[r.off+i])
	}
	b = append(b, '[')
	for c, cl := range r.row(i) {
		if c > 0 {
			b = append(b, ',')
		}
		b = cl.appendJSON(b, r.sealed, r.tail)
	}
	return append(b, ']')
}

// AppendTuplesJSON appends rows as a JSON array of tuples, each row
// rendered where it lies (AppendRowJSON).
func AppendTuplesJSON(b []byte, rows Rows) []byte {
	b = append(b, '[')
	for i := range rows.Len() {
		if i > 0 {
			b = append(b, ',')
		}
		b = rows.AppendRowJSON(b, i)
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
	var tb *TupleBlocks
	return tb.ParseJSON(sch, b)
}

// ParseJSON reads b, a JSON array of scalars and nothing else, as a tuple
// over sch, with ParseTupleJSON's results, into a Tuple of its own whose
// plain strings are cut from the string blocks — or, on a nil
// TupleBlocks, allocated alone. It fills no row, and blocks it parses
// into hold none: what it returns is a tuple for a relation to file a
// copy of (the daemon's request lines), and a block it has filled lives
// as long as a tuple cut from it, not as long as the blocks.
func (tb *TupleBlocks) ParseJSON(sch *schema.Schema, b []byte) (Tuple, error) {
	if tb != nil {
		if tb.rows > 0 {
			panic("relation: ParseJSON into blocks that hold rows")
		}
		// No cell points into a sealed block: let each go.
		clear(tb.strs.sealed)
		tb.strs.sealed = tb.strs.sealed[:0]
	}
	t := make(Tuple, 0, sch.Arity())
	b, err := eachValue(sch, b, func(b []byte, k value.Kind) ([]byte, error) {
		if s, rest, verbatim, ok := value.PlainJSONString(b); ok && k == value.KindString && tb != nil {
			tb.strs.room(len(s), stringBlock)
			c := tb.strs.putBytes(s, verbatim)
			t = append(t, c.value(tb.strs.sealed, tb.strs.tail.String()))
			return rest, nil
		}
		v, rest, err := value.ParseJSON(b, k)
		t = append(t, v)
		return rest, err
	})
	if err == nil && len(skipSpace(b)) > 0 {
		err = fmt.Errorf("trailing bytes after the JSON array")
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// eachValue reads the tuple at the front of b, a JSON array of sch's
// arity, handing each value's bytes and its attribute's kind to read,
// which returns what follows the value; eachValue returns what follows
// the array.
func eachValue(sch *schema.Schema, b []byte, read func(b []byte, k value.Kind) ([]byte, error)) ([]byte, error) {
	n := 0
	for first := true; ; first = false {
		var ok bool
		var err error
		if b, ok, err = element(b, first); err != nil {
			return b, err
		} else if !ok {
			break
		}
		if n == sch.Arity() {
			return b, fmt.Errorf("more than %d values, schema wants %[1]d", sch.Arity())
		}
		a := sch.Attr(n)
		if b, err = read(b, a.Kind); err != nil {
			return b, fmt.Errorf("attribute %q: %w", a.Name, err)
		}
		n++
	}
	if n != sch.Arity() {
		return b, fmt.Errorf("%d values, schema wants %d", n, sch.Arity())
	}
	return b, nil
}

// parseRow reads the tuple at the front of b into the next row and
// returns what follows it: a plain string's bytes go straight into the
// string blocks, and no Value is built for one. The row is counted only
// when it reads whole.
func (tb *TupleBlocks) parseRow(sch *schema.Schema, b []byte) ([]byte, error) {
	tb.whole(sch.Arity())
	row, c := tb.slot(sch.Arity()), 0
	b, err := eachValue(sch, b, func(b []byte, k value.Kind) ([]byte, error) {
		if s, rest, verbatim, ok := value.PlainJSONString(b); ok && k == value.KindString {
			if len(s) == 0 {
				row[c] = emptyString
			} else {
				tb.strs.room(len(s), stringBlock)
				row[c] = tb.strs.putBytes(s, verbatim)
			}
			c++
			return rest, nil
		}
		v, rest, err := value.ParseJSON(b, k)
		if err == nil {
			row[c] = tb.strs.cellOf(v, stringBlock)
			c++
		}
		return rest, err
	})
	if err == nil {
		tb.rows++
	}
	return b, err
}

// ParseTuplesJSON reads b, a JSON array of tuples over sch and nothing
// else, into rows of the blocks — a snapshot segment's run of 1,024
// tuples takes a few allocations for its cells and strings, not 1,024 —
// and returns the rows it read. On an error the blocks hold the rows
// they held.
func (tb *TupleBlocks) ParseTuplesJSON(sch *schema.Schema, b []byte) (Rows, error) {
	start := tb.rows
	for first := true; ; first = false {
		var ok bool
		var err error
		if b, ok, err = element(b, first); err != nil {
			tb.rows = start
			return Rows{}, err
		} else if !ok {
			break
		}
		if b, err = tb.parseRow(sch, b); err != nil {
			err = fmt.Errorf("tuple %d: %w", tb.rows-start, err)
			tb.rows = start
			return Rows{}, err
		}
	}
	if len(skipSpace(b)) > 0 {
		tb.rows = start
		return Rows{}, fmt.Errorf("trailing bytes after the JSON array")
	}
	return tb.Rows().Slice(start-tb.first, tb.rows-tb.first), nil
}
