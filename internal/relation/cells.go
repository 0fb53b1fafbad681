package relation

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"

	"entityid/internal/value"
)

// cell is one value as a relation holds it: 16 bytes and no pointer, so a
// block of cells is memory the collector never scans. A number or a bool
// lies in w — an integer's bits, a float's IEEE bits, 0 or 1; a string is
// where it lies in its relation's string blocks, the block in w's high
// half, the offset in its low half, the length in n. kind is the value's
// kind, NULL's included: checkShape fixes every other cell's kind to its
// column's, but NULL may lie in any column. verbatim, in what would be
// padding, marks a string value.AppendJSONString writes unchanged between
// its quotes (value.VerbatimJSON); it is judged once, where the bytes are
// first copied into a string block — by a decoder in the walk that found
// them — and travels with the cell.
type cell struct {
	w        uint64
	n        uint32
	kind     uint8
	verbatim bool
}

// emptyString is the cell of "": no bytes, nothing to escape.
var emptyString = cell{kind: uint8(value.KindString), verbatim: true}

// blockRows is how many rows a cell block holds. A store's first blocks
// hold 1, 2, 4, … rows, doubling up to it, so a relation of a handful of
// tuples does not pay for 128 (firstRows rows lie in them); every later
// block holds 128 rows — 8 KiB at arity 4, a size class exactly.
const (
	blockRows = 128
	firstRows = 2*blockRows - 1
	firstBlks = 8 // log2(blockRows) + 1 doubling blocks
)

// blockOf returns the block row i lies in and its row in that block.
func blockOf(i int) (b, r int) {
	if i < firstRows {
		b = bits.Len(uint(i+1)) - 1
		return b, i + 1 - 1<<b
	}
	i -= firstRows
	return firstBlks + i/blockRows, i % blockRows
}

// stringBlock is the size of a string block a decoder starts, and the
// most a relation's doubling blocks ask for.
const stringBlock = 4 << 10

// strs is a store's string blocks: the sealed ones, each as the string
// it was sealed as, then tail, the block being filled, at index
// len(sealed). A strings.Builder never writes over what it holds, so a
// string cut from it stays as it was, and a block's string taken at any
// moment reads every byte written before.
type strs struct {
	sealed []string
	tail   strings.Builder
}

// seal closes the tail block: its string joins the sealed ones, and the
// next string starts a block.
func (ss *strs) seal() {
	if ss.tail.Len() > 0 {
		ss.sealed = append(ss.sealed, ss.tail.String())
	}
	ss.tail = strings.Builder{}
}

// room makes sure the tail block has n bytes left, starting a block of
// size bytes when it does not.
func (ss *strs) room(n, size int) {
	if ss.tail.Cap()-ss.tail.Len() < n {
		ss.seal()
		ss.tail.Grow(max(size, n))
	}
}

// put writes s into the tail block, which has room for it, and returns
// its cell.
func (ss *strs) put(s string) cell {
	c := ss.next(len(s))
	ss.tail.WriteString(s)
	c.verbatim = value.VerbatimJSON(s)
	return c
}

// putBytes is put for a string's bytes that a decoder has judged
// verbatim or not (value.PlainJSONString) in the walk that found them.
func (ss *strs) putBytes(b []byte, verbatim bool) cell {
	c := ss.next(len(b))
	ss.tail.Write(b)
	c.verbatim = verbatim
	return c
}

// next returns the cell of an n-byte string written next.
func (ss *strs) next(n int) cell {
	return cell{w: uint64(len(ss.sealed))<<32 | uint64(ss.tail.Len()), n: uint32(n), kind: uint8(value.KindString)}
}

// adopt appends a block of another store's, h, after sealing the tail,
// and returns its index: what lies in h is then shared, not copied.
func (ss *strs) adopt(h string) uint32 {
	ss.seal()
	ss.sealed = append(ss.sealed, h)
	return uint32(len(ss.sealed) - 1)
}

// cellOf returns v's cell, a string's bytes copied into ss — into a block
// of want bytes at least when v's does not fit the tail (want is what
// the caller is about to copy, v's first).
func (ss *strs) cellOf(v value.Value, want int) cell {
	if v.Kind() != value.KindString {
		return cell{w: v.Word(), kind: uint8(v.Kind())}
	}
	s := v.Str()
	if s == "" {
		return emptyString
	}
	ss.room(len(s), max(want, min(stringBlock, 2*ss.tail.Cap())))
	return ss.put(s)
}

// value rebuilds the value of cell c, whose string, if it is one, lies
// in sealed or, past them, in tail: a substring of the block, no copy.
//
//entitylint:hotpath nolock,noobs,noio
func (c cell) value(sealed []string, tail string) value.Value {
	if c.kind != uint8(value.KindString) {
		return value.Scalar(value.Kind(c.kind), c.w)
	}
	return value.String(c.str(sealed, tail))
}

// str returns string cell c's bytes, a substring of the block they lie
// in: one of sealed or, past them, tail.
//
//entitylint:hotpath nolock,noobs,noio
func (c cell) str(sealed []string, tail string) string {
	s := tail
	if blk := int(c.w >> 32); blk < len(sealed) {
		s = sealed[blk]
	}
	off := uint32(c.w)
	return s[off : off+c.n]
}

// appendJSON appends cell c as a JSON scalar, the bytes value.AppendJSON
// writes for its value: a verbatim string is copied between its quotes,
// and no value is built for a string.
//
//entitylint:hotpath nolock,noobs,noio
func (c cell) appendJSON(b []byte, sealed []string, tail string) []byte {
	if c.kind != uint8(value.KindString) {
		return value.AppendJSON(b, value.Scalar(value.Kind(c.kind), c.w))
	}
	if !c.verbatim {
		return value.AppendJSONString(b, c.str(sealed, tail))
	}
	b = append(b, '"')
	b = append(b, c.str(sealed, tail)...)
	return append(b, '"')
}

// TupleBlocks is where a relation's tuples lie: row-major cells, arity to
// a row, in blocks that never move (blockRows), and the
// tuples' strings in string blocks the cells point into by block, offset
// and length — the store's only pointers. It is append-only: a row, once
// counted, is never written again, so a prefix (Rows) read while the
// store grows reads what it read before. A relation files a copy of a
// tuple into its own store (InsertAdmitted); a decoder parses a run of
// tuples straight into a store of its own (ParseTuplesJSON), whose rows a
// relation then takes — the cells copied, 16 bytes each, the string
// blocks adopted whole, not copied (InsertAll, KeepAdmitted). The zero
// value is ready to use; the first row fixes its arity.
type TupleBlocks struct {
	// first is the row the blocks start at (Skip); rows is one past the
	// last.
	arity, first, rows int
	blocks             [][]cell
	strs               strs
	// id tells this store's blocks apart from another's when a relation
	// adopts them (nextID; 0 until a Rows is taken).
	id uint64
	// from is the last block adopted from another store: which store,
	// which block, as long as what was adopted, and its index here. A
	// decoder's rows point into a few blocks in turn, so one entry
	// adopts each block about once.
	from struct {
		id   uint64
		blk  uint32
		n    int
		here uint32
	}
}

// nextID numbers the stores whose rows are taken.
var nextID atomic.Uint64

// Len returns the number of rows.
func (tb *TupleBlocks) Len() int { return tb.rows - tb.first }

// Skip lays out empty blocks from row n on: the rows they take lie where
// a relation that holds n rows will hold them, so that it takes them
// whole, the blocks they fill adopted and not copied. A decoder of rows
// bound for such a relation skips its n rows before its first.
func (tb *TupleBlocks) Skip(n int) {
	if tb.rows > 0 || len(tb.blocks) > 0 {
		panic("relation: Skip on blocks that hold rows")
	}
	b, _ := blockOf(n)
	tb.blocks = make([][]cell, b, b+1)
	tb.first, tb.rows = n, n
}

// slot returns the cells of row tb.rows — the next, not counted until
// the caller counts it — appending the block it lies in when it is the
// first row of one.
func (tb *TupleBlocks) slot(arity int) []cell {
	if tb.rows == tb.first {
		tb.arity = arity
	} else if arity != tb.arity {
		panic(fmt.Sprintf("relation: a row of %d cells in blocks of arity %d", arity, tb.arity))
	}
	b, r := blockOf(tb.rows)
	if b == len(tb.blocks) {
		rows := blockRows
		if b < firstBlks {
			rows = 1 << b
		}
		tb.blocks = append(tb.blocks, make([]cell, rows*tb.arity))
	}
	return rowIn(tb.blocks[b], r, tb.arity)
}

// whole lays out, before a decoder's first row, all the doubling blocks
// at once: a decoder reads runs of tuples, and one allocation for the
// first 255 rows is what two blocks of 128 would cost.
func (tb *TupleBlocks) whole(arity int) {
	if len(tb.blocks) > 0 {
		return
	}
	cells := make([]cell, firstRows*arity)
	tb.blocks = make([][]cell, firstBlks, 2*firstBlks)
	for b := range firstBlks {
		lo, hi := (1<<b-1)*arity, (1<<(b+1)-1)*arity
		tb.blocks[b] = cells[lo:hi:hi]
	}
	tb.arity = arity
}

// rowIn returns row r of a block of rows of arity cells.
func rowIn(block []cell, r, arity int) []cell {
	return block[r*arity : (r+1)*arity]
}

// row returns the cells of row i.
func (tb *TupleBlocks) row(i int) []cell {
	b, r := blockOf(i)
	return rowIn(tb.blocks[b], r, tb.arity)
}

// keep files a copy of t as the next row, its strings copied into the
// string blocks — all of one tuple's strings into one block.
func (tb *TupleBlocks) keep(t Tuple) {
	row := tb.slot(len(t))
	want := 0
	for _, v := range t {
		if v.Kind() == value.KindString {
			want += len(v.Str())
		}
	}
	for c, v := range t {
		row[c] = tb.strs.cellOf(v, want)
		want -= int(row[c].n)
	}
	tb.rows++
}

// take files row i of rows as the next row, the string blocks its
// strings lie in adopted. When the row lies in rows' store where it is to
// lie here (Skip), the block it lies in is adopted, at its first row, and
// the row is taken where it lies; else its cells are copied.
func (tb *TupleBlocks) take(rows *Rows, i int) {
	if rows.list != nil {
		tb.keep(rows.list[rows.off+i])
		return
	}
	var row []cell
	if rows.off+i == tb.rows && rows.arity > 0 && (tb.arity == rows.arity || tb.rows == 0) {
		b, r := blockOf(tb.rows)
		if r == 0 && b == len(tb.blocks) {
			tb.arity = rows.arity
			tb.blocks = append(tb.blocks, rows.blocks[b])
		}
		if b < len(tb.blocks) && &tb.blocks[b][0] == &rows.blocks[b][0] {
			row = rowIn(tb.blocks[b], r, tb.arity)
		}
	}
	if row == nil {
		row = tb.slot(rows.arity)
		copy(row, rows.row(i))
	}
	for c := range row {
		if row[c].kind == uint8(value.KindString) && row[c].n > 0 {
			row[c].w = uint64(tb.adopt(rows, row[c]))<<32 | uint64(uint32(row[c].w))
		}
	}
	tb.rows++
}

// adopt returns the index here of the block of rows' store that string
// cell c lies in, adopting the block unless the last adopted one is it
// and holds c.
func (tb *TupleBlocks) adopt(rows *Rows, c cell) uint32 {
	blk, end := uint32(c.w>>32), int(uint32(c.w))+int(c.n)
	m := &tb.from
	if m.id == rows.id && m.blk == blk && m.n >= end {
		return m.here
	}
	h := rows.tail
	if int(blk) < len(rows.sealed) {
		h = rows.sealed[blk]
	}
	m.id, m.blk, m.n, m.here = rows.id, blk, len(h), tb.strs.adopt(h)
	return m.here
}

// Rows returns the rows held now, a prefix that reads the same however
// the store grows after.
func (tb *TupleBlocks) Rows() Rows {
	if tb.id == 0 {
		tb.id = nextID.Add(1)
	}
	return Rows{id: tb.id, arity: tb.arity, off: tb.first, n: tb.rows - tb.first, blocks: tb.blocks, sealed: tb.strs.sealed, tail: tb.strs.tail.String()}
}

// at returns column c of row i.
func (tb *TupleBlocks) at(i, c int) value.Value {
	return tb.row(i)[c].value(tb.strs.sealed, tb.strs.tail.String())
}

// tupleInto writes row i over dst and returns it.
func (tb *TupleBlocks) tupleInto(dst Tuple, i int) Tuple {
	dst = dst[:0]
	tail := tb.strs.tail.String()
	for _, c := range tb.row(i) {
		dst = append(dst, c.value(tb.strs.sealed, tail))
	}
	return dst
}

// Rows is a run of rows to read: a prefix of a store's (TupleBlocks.Rows),
// or a slice of one — the block list, the string blocks and the tail
// block as they were when it was taken, and which rows — or the caller's
// own tuples (RowsOf). It is what a relation publishes to lock-free
// readers, what the snapshot writer encodes, and what a decoder hands a
// relation to take. The zero value holds no rows.
type Rows struct {
	id     uint64
	arity  int
	off, n int
	blocks [][]cell
	sealed []string
	tail   string
	list   []Tuple
}

// RowsOf returns ts as Rows, read where they lie: a run a caller holds
// as tuples — a commit's tuple before any relation files it.
func RowsOf(ts ...Tuple) Rows {
	r := Rows{list: ts, n: len(ts)}
	if len(ts) > 0 {
		r.arity = len(ts[0])
	}
	return r
}

// Len returns the number of rows.
func (r Rows) Len() int { return r.n }

// Arity returns the number of cells a row holds.
func (r Rows) Arity() int { return r.arity }

// Slice returns rows lo to hi.
func (r Rows) Slice(lo, hi int) Rows {
	if lo < 0 || hi < lo || hi > r.n {
		panic("relation: Rows.Slice out of range")
	}
	r.off, r.n = r.off+lo, hi-lo
	return r
}

// row returns the cells of row i of a store's rows.
func (r *Rows) row(i int) []cell {
	b, at := blockOf(r.off + i)
	return rowIn(r.blocks[b], at, r.arity)
}

// At returns column c of row i.
//
//entitylint:hotpath nolock,noobs,noio
func (r *Rows) At(i, c int) value.Value {
	if r.list != nil {
		return r.list[r.off+i][c]
	}
	return r.row(i)[c].value(r.sealed, r.tail)
}

// TupleInto writes row i over dst — scratch the caller owns, grown if it
// is too small — and returns it.
//
//entitylint:hotpath nolock,noobs,noio
func (r *Rows) TupleInto(dst Tuple, i int) Tuple {
	if r.list != nil {
		return append(dst[:0], r.list[r.off+i]...)
	}
	dst = slices.Grow(dst[:0], r.arity)
	for _, c := range r.row(i) {
		dst = append(dst, c.value(r.sealed, r.tail))
	}
	return dst
}
