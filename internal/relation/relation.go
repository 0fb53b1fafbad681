// Package relation implements in-memory relations: ordered collections of
// tuples over a schema, with candidate-key enforcement and deterministic
// iteration. Relations are the substrate every other package operates on —
// the paper assumes "the data model used is relational and real-world
// entities of the same type can be represented as tuples in relations"
// (§3.1).
//
// A relation's tuples have one resident form: their values in blocks of
// about 64 tuples and their strings in blocks of up to 4 KiB
// (TupleBlocks), either the relation's own — Insert and InsertAdmitted
// file a copy of the tuple they are given there — or a decoder's, handed
// over whole (InsertAll, KeepAdmitted). Each tuple's capacity is its
// arity, so no append to one reaches the next.
//
// Key enforcement deliberately skips NULLs: the extended relations R′ and
// S′ of §4.2 carry NULL in attributes the source relation never modeled,
// and the integrated table T_RS may hold NULLs even inside extended-key
// attributes. Candidate keys are therefore checked with storage-level
// identity over fully non-NULL key projections only. A key index is a
// PosIndex (posindex.go): positions filed under a hash of the projection,
// every candidate verified value by value — no projection is ever joined
// into a string, so no byte a value may hold can make two keys one.
//
// The extended relations are image relations (NewImage): views over the
// relation they extend. Row i is that relation's tuple i — held there,
// once — plus the cells in which the extended image differs from it: what
// the ILFDs derived. An image keeps no key index of its own — the
// extended relation's index is the one index, and its Admit the one key
// guard — and reads go through At (one cell) or TupleInto (a row, into
// the caller's scratch). R′ and S′ are views of an image (NewView): the
// image's rows laid out in a pair's columns, the derived cells shared, so
// the pairs that agree on a source's knowledge hold its derivation once.
package relation

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"entityid/internal/schema"
	"entityid/internal/value"
)

// Tuple is one row of a relation. Values appear in schema attribute order.
type Tuple []value.Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	return append(Tuple(nil), t...)
}

// Key encodes the tuple (or a projection of it) as a map key: each
// value's Key behind its length, so no value's bytes can pass for the
// boundary between two.
func (t Tuple) Key() string {
	var b strings.Builder
	for _, v := range t {
		k := v.Key()
		b.WriteString(strconv.Itoa(len(k)))
		b.WriteByte(':')
		b.WriteString(k)
	}
	return b.String()
}

// Identical reports storage-level equality of two tuples (NULL identical
// to NULL).
func (t Tuple) Identical(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !value.Identical(t[i], o[i]) {
			return false
		}
	}
	return true
}

// Relation is a mutable multiset of tuples over a schema. The first
// candidate key of the schema is enforced on Insert: two tuples may not
// agree (non-NULL, storage-identical) on all primary-key attributes. All
// candidate keys declared on the schema are enforced likewise.
type Relation struct {
	schema *schema.Schema
	// tuples are an ordinary relation's rows; an image relation has none.
	// What InsertAdmitted files lies in blocks, whose rest is what the
	// next filed tuples are cut from.
	tuples []Tuple
	blocks TupleBlocks
	// keyCols holds, per candidate key, the column offsets of its
	// attributes — resolved once, so key projection indexes the tuple
	// instead of copying the schema's keys and looking each name up.
	keyCols [][]int
	// keyIdx holds, per candidate key, the positions of the tuples whose
	// projection is fully non-NULL, for O(1) duplicate detection and key
	// lookups. Nil on an image relation.
	keyIdx []*PosIndex
	// bag disables duplicate detection (NewBag).
	bag bool
	// limit is how many tuples the relation admits: maxRows.
	limit int

	// lender marks an image relation (NewImage) or a view of one
	// (NewView) and is the relation it extends: row i is lender.tuples[i]
	// overlaid with the cells of row i in the image's arena. A view shares
	// its image's arena and reads each cell's image column through remap,
	// which is nil on the image itself.
	lender *Relation
	cells  *arena
	remap  []int32
}

// arena is an image's derived cells: those of row i are [end[i-1],
// end[i]), each an image column and the value the image holds there.
// Append-only.
type arena struct {
	col []int32
	val []value.Value
	end []uint32
}

// New creates an empty relation with the given schema.
func New(s *schema.Schema) *Relation {
	keys := s.Keys()
	r := &Relation{
		schema:  s,
		keyCols: make([][]int, len(keys)),
		keyIdx:  make([]*PosIndex, len(keys)),
		limit:   maxRows,
	}
	for ki, key := range keys {
		r.keyCols[ki] = make([]int, len(key))
		for i, a := range key {
			r.keyCols[ki][i] = s.Index(a)
		}
		r.keyIdx[ki] = NewPosIndex()
	}
	return r
}

// NewBag creates an empty relation that does not enforce candidate
// keys: a bag, for operator outputs (merged views, projections) whose
// rows may legitimately repeat. The schema's keys remain declared for
// documentation, and LookupKey still resolves the last-inserted tuple
// per key value.
func NewBag(s *schema.Schema) *Relation {
	r := New(s)
	r.bag = true
	return r
}

// NewImage creates an empty image relation over lender: one whose row i
// extends — begins with, under renamed attributes — lender's tuple i, the
// way §4.2's R′ extends R. It holds no copy of that tuple, only the cells
// in which row i differs from it: the columns past lender's arity that
// are not NULL, and the NULLs of the tuple an ILFD filled. The schema
// must therefore begin with lender's columns, kind for kind. Its
// candidate keys are lender's, which has admitted every tuple an image is
// made of; an image relation keeps no key index and guards no key. Rows
// join it through Adopt. What the missing index changes: LookupKey
// answers by scanning, Sort is refused (position is what ties a row to
// the tuple it extends), and Clone returns an ordinary relation — a deep
// copy with a key index of its own, free to be sorted.
//
// An image reads lender's tuples whenever it is read: whoever reads one
// while the other grows must order the two, as for the relation alone.
func NewImage(s *schema.Schema, lender *Relation) (*Relation, error) {
	if lender.lender != nil {
		return nil, fmt.Errorf("relation %s: an image of the image relation %s", s.Name(), lender.schema.Name())
	}
	ls := lender.schema
	if s.Arity() < ls.Arity() {
		return nil, fmt.Errorf("relation %s: %d attributes cannot extend the %d of %s", s.Name(), s.Arity(), ls.Arity(), ls.Name())
	}
	for c := 0; c < ls.Arity(); c++ {
		if got, want := s.Attr(c).Kind, ls.Attr(c).Kind; got != want {
			return nil, fmt.Errorf("relation %s: attribute %q is %s, the column of %s it extends is %s", s.Name(), s.Attr(c).Name, got, ls.Name(), want)
		}
	}
	r := New(s)
	r.lender, r.keyIdx, r.cells = lender, nil, &arena{}
	return r, nil
}

// NewView creates a view of the image relation img under the schema s:
// row i is img's row i, each cell in the column of s that bears its
// attribute's name, and NULL in every column of s that img lacks. s
// begins with the columns of the relation img extends, named and kinded
// as img names them, and holds every other column of img, kind for kind.
// The view reads img's cells where they lie and grows as img adopts rows;
// it adopts none itself. Like an image it keeps no key index.
func NewView(s *schema.Schema, img *Relation) (*Relation, error) {
	if img.lender == nil || img.remap != nil {
		return nil, fmt.Errorf("relation %s: a view of %s, which is not an image relation", s.Name(), img.schema.Name())
	}
	is, base := img.schema, img.lender.schema.Arity()
	remap := make([]int32, is.Arity())
	for c := range remap {
		a := is.Attr(c)
		vc := s.Index(a.Name)
		if vc < 0 || (vc < base) != (c < base) || (c < base && vc != c) || s.Attr(vc).Kind != a.Kind {
			return nil, fmt.Errorf("relation %s: attribute %q %s of the image relation %s has no column of its own in the view", s.Name(), a.Name, a.Kind, is.Name())
		}
		remap[c] = int32(vc)
	}
	r := New(s)
	r.lender, r.keyIdx, r.cells, r.remap = img.lender, nil, img.cells, remap
	return r, nil
}

// IsImage reports whether the relation was created with NewImage or
// NewView.
func (r *Relation) IsImage() bool { return r.lender != nil }

// Adopt appends a row to an image relation: ext is the extended image
// of the lender's tuple at the row's position, and what the relation
// keeps of it is where it differs from that tuple, copied — ext stays
// the caller's. The row's shape is checked (a derived value has its
// column's kind); no key is, see NewImage. Refused, with the relation as
// it was: a row with no lender tuple to extend, and an image that
// disagrees with a cell the tuple holds — extending fills NULLs, it
// rewrites nothing, so agreement wherever the source is not NULL holds
// of every row by construction.
func (r *Relation) Adopt(ext Tuple) error {
	if r.lender == nil || r.remap != nil {
		return fmt.Errorf("relation %s: Adopt on a relation that is not an image", r.schema.Name())
	}
	a := r.cells
	i := len(a.end)
	if i >= len(r.lender.tuples) {
		return fmt.Errorf("relation %s: adopt: row %d has no tuple to extend: %s holds %d", r.schema.Name(), i, r.lender.schema.Name(), len(r.lender.tuples))
	}
	if err := checkShape(r.schema, ext); err != nil {
		return err
	}
	src, mark := r.lender.tuples[i], len(a.val)
	for c, v := range ext {
		var have value.Value // NULL past the lender's arity
		if c < len(src) {
			have = src[c]
		}
		if v.Canon() == have.Canon() {
			continue
		}
		if !have.IsNull() {
			a.col, a.val = a.col[:mark], a.val[:mark]
			return fmt.Errorf("relation %s: adopt: image %v of row %d holds %v for %q where tuple %v of %s holds %v",
				r.schema.Name(), ext, i, v, r.schema.Attr(c).Name, src, r.lender.schema.Name(), have)
		}
		a.col, a.val = append(a.col, int32(c)), append(a.val, v)
	}
	if uint64(len(a.val)) > math.MaxUint32 {
		a.col, a.val = a.col[:mark], a.val[:mark]
		return fmt.Errorf("relation %s: adopt: row %d: more derived cells than a row offset counts", r.schema.Name(), i)
	}
	a.end = append(a.end, uint32(len(a.val)))
	return nil
}

// row returns the arena range of image row i.
func (a *arena) row(i int) (lo, hi uint32) {
	if i > 0 {
		lo = a.end[i-1]
	}
	return lo, a.end[i]
}

// col returns the column of r that arena cell k lies in.
func (r *Relation) col(k uint32) int {
	if r.remap != nil {
		return int(r.remap[r.cells.col[k]])
	}
	return int(r.cells.col[k])
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *schema.Schema { return r.schema }

// IsBag reports whether the relation was created with NewBag (no
// candidate-key enforcement).
func (r *Relation) IsBag() bool { return r.bag }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if r.lender != nil {
		return len(r.cells.end)
	}
	return len(r.tuples)
}

// At returns column c of tuple i. It is how a row of an image relation
// is read one cell at a time: it allocates nothing.
//
//entitylint:hotpath nolock,noobs,noio
func (r *Relation) At(i, c int) value.Value {
	if r.lender == nil {
		return r.tuples[i][c]
	}
	for k, hi := r.cells.row(i); k < hi; k++ {
		if r.col(k) == c {
			return r.cells.val[k]
		}
	}
	if src := r.lender.tuples[i]; c < len(src) {
		return src[c]
	}
	return value.Null
}

// TupleInto writes tuple i over dst — scratch the caller owns, grown if
// it is too small — and returns it. It is how a row of an image relation
// is read whole; what it returns is the caller's to overwrite, not the
// relation's row.
//
//entitylint:hotpath nolock,noobs,noio
func (r *Relation) TupleInto(dst Tuple, i int) Tuple {
	if r.lender == nil {
		return append(dst[:0], r.tuples[i]...)
	}
	dst = append(dst[:0], r.lender.tuples[i]...)
	for n := r.schema.Arity(); len(dst) < n; {
		dst = append(dst, value.Null)
	}
	for k, hi := r.cells.row(i); k < hi; k++ {
		dst[r.col(k)] = r.cells.val[k]
	}
	return dst
}

// LayOut writes over dst — scratch the caller owns — row, a row in the
// columns of the image r is a view of, laid out in r's columns, and
// returns it: what TupleInto would read for that row once the image held
// it.
func (r *Relation) LayOut(dst, row Tuple) Tuple {
	if r.remap == nil {
		return append(dst[:0], row...)
	}
	base := r.lender.schema.Arity()
	dst = append(dst[:0], row[:base]...)
	for n := r.schema.Arity(); len(dst) < n; {
		dst = append(dst, value.Null)
	}
	for c := base; c < len(row); c++ {
		dst[r.remap[c]] = row[c]
	}
	return dst
}

// Tuple returns the tuple at position i: an ordinary relation's own row
// (not a copy; callers must not mutate it), an image relation's row
// materialised — a sweep reads through TupleInto and a scratch row
// instead.
func (r *Relation) Tuple(i int) Tuple {
	if r.lender != nil {
		return r.TupleInto(make(Tuple, 0, r.schema.Arity()), i)
	}
	return r.tuples[i]
}

// Tuples returns the tuples in insertion order: an ordinary relation's
// own slice (shared; callers must not mutate it), an image relation's
// rows materialised, all of them, on every call.
func (r *Relation) Tuples() []Tuple {
	if r.lender == nil {
		return r.tuples
	}
	arity := r.schema.Arity()
	out, cells := make([]Tuple, r.Len()), make(Tuple, r.Len()*arity)
	for i := range out {
		out[i] = r.TupleInto(cells[i*arity:i*arity:(i+1)*arity], i)
	}
	return out
}

// Value returns tuple i's value for the named attribute.
func (r *Relation) Value(i int, attr string) (value.Value, error) {
	j := r.schema.Index(attr)
	if j < 0 {
		return value.Null, fmt.Errorf("relation %s: no attribute %q", r.schema.Name(), attr)
	}
	return r.At(i, j), nil
}

// MustValue is Value that panics on unknown attributes.
func (r *Relation) MustValue(i int, attr string) value.Value {
	v, err := r.Value(i, attr)
	if err != nil {
		panic(err)
	}
	return v
}

// keyHash is one tuple's projection onto one candidate key, hashed; full
// is false where the projection holds a NULL (not indexed, mirroring
// SQL's treatment of NULLs in unique constraints and the paper's extended
// relations).
type keyHash struct {
	h    uint64
	full bool
}

// hashKey hashes vals' projection onto candidate key ki: vals is a tuple
// under cols, the key's values themselves under nil.
func (r *Relation) hashKey(ki int, vals Tuple, cols []int) keyHash {
	for n := range r.keyCols[ki] {
		if projected(vals, cols, n).IsNull() {
			return keyHash{}
		}
	}
	return keyHash{h: r.keyIdx[ki].Hash(vals, cols), full: true}
}

// projected is the n-th value of vals' projection onto cols (vals itself
// under nil).
func projected(vals Tuple, cols []int, n int) value.Value {
	if cols == nil {
		return vals[n]
	}
	return vals[cols[n]]
}

// find returns the newest tuple filed under h whose projection onto
// candidate key ki is vals' (as hashKey reads it), or -1: every position
// of the chain is held to the key's identity, value by value — one kind
// and one canonical form, the identity value.Key spells.
func (r *Relation) find(ki int, h uint64, vals Tuple, cols []int) int {
	ix := r.keyIdx[ki]
chain:
	for pos := ix.Last(h); pos >= 0; pos = ix.Prev(pos) {
		for n, c := range r.keyCols[ki] {
			if r.tuples[pos][c].Canon() != projected(vals, cols, n).Canon() {
				continue chain
			}
		}
		return pos
	}
	return -1
}

// Admission is a tuple a relation has checked and not yet inserted:
// Admit's verdict kept, with the key hashes it was reached on, so
// InsertAdmitted files the tuple without checking its shape or hashing a
// key again. It is good for the relation that gave it, until that
// relation next changes.
type Admission struct {
	r *Relation
	t Tuple
	// key0 and more hold the tuple's projection hash per candidate key —
	// the first inline, so a single-key relation's admission allocates
	// nothing; at is the position the tuple will take.
	key0 keyHash
	more []keyHash
	at   int
}

// Tuple returns the admitted tuple.
func (a Admission) Tuple() Tuple { return a.t }

// By reports whether r gave the admission.
func (a Admission) By(r *Relation) bool { return a.r == r }

// key returns the hash the tuple was admitted under for candidate key ki.
func (a *Admission) key(ki int) *keyHash {
	if ki == 0 {
		return &a.key0
	}
	return &a.more[ki-1]
}

// Admit checks that the relation can take the tuple — arity, value kinds
// and every candidate key — without changing anything. On an image
// relation it fails: rows join one through Adopt.
func (r *Relation) Admit(t Tuple) (Admission, error) {
	if r.lender != nil {
		return Admission{}, fmt.Errorf("relation %s: an image relation takes rows through Adopt", r.schema.Name())
	}
	if err := checkShape(r.schema, t); err != nil {
		return Admission{}, err
	}
	a := Admission{r: r, t: t, at: len(r.tuples)}
	if a.at >= r.limit {
		return Admission{}, fmt.Errorf("relation %s: full: it holds %d tuples, the most a position index files", r.schema.Name(), a.at)
	}
	if n := len(r.keyCols); n > 1 {
		a.more = make([]keyHash, n-1)
	}
	// Every key is checked before any is indexed.
	for ki, cols := range r.keyCols {
		kh := r.hashKey(ki, t, cols)
		if kh.full && !r.bag {
			if dup := r.find(ki, kh.h, t, cols); dup >= 0 {
				return Admission{}, r.keyViolation(ki, t, dup)
			}
		}
		*a.key(ki) = kh
	}
	return a, nil
}

// InsertAdmitted files a copy of an admitted tuple into the relation's
// blocks — its values and its strings: the tuple stays the caller's —
// under the key hashes it was admitted on. It fails, changing nothing,
// if the admission is another relation's or the relation has changed
// since.
func (r *Relation) InsertAdmitted(a Admission) error {
	if err := r.stale(a); err != nil {
		return err
	}
	r.file(a, r.blocks.keep(a.t))
	return nil
}

// KeepAdmitted is InsertAdmitted keeping the admitted tuple itself, not a
// copy, under InsertAll's rule: the caller hands the tuple over.
func (r *Relation) KeepAdmitted(a Admission) error {
	if err := r.stale(a); err != nil {
		return err
	}
	r.file(a, a.t)
	return nil
}

// stale refuses admission a unless r gave it and has not changed since.
func (r *Relation) stale(a Admission) error {
	if a.r != r || a.at != len(r.tuples) {
		return fmt.Errorf("relation %s: stale admission: given at %d tuples, the relation holds %d", r.schema.Name(), a.at, len(r.tuples))
	}
	return nil
}

// file appends t, the tuple of admission a or its copy, under a's key
// hashes.
func (r *Relation) file(a Admission, t Tuple) {
	r.tuples = append(r.tuples, t)
	for ki, ix := range r.keyIdx {
		kh := a.key(ki)
		ix.Add(kh.h, kh.full)
	}
}

// InsertAll inserts ts in order, each tuple admitted as Insert admits it
// — shape and every candidate key — but kept itself, not copied: the
// caller, a decoder whose blocks the tuples were cut from, hands the
// tuples over, and into an empty relation the slice too. The relation
// and its key indexes are sized for all of ts first. On a refusal the
// tuples before the refused one stay inserted.
func (r *Relation) InsertAll(ts []Tuple) error {
	if len(r.tuples) == 0 {
		r.tuples = ts[:0]
	} else {
		r.tuples = slices.Grow(r.tuples, len(ts))
	}
	for _, ix := range r.keyIdx {
		ix.Reserve(len(ts))
	}
	for _, t := range ts {
		a, err := r.Admit(t)
		if err != nil {
			return err
		}
		r.file(a, t)
	}
	return nil
}

// CanInsert reports whether Insert would accept the tuple, without
// mutating the relation: it checks arity, value kinds and candidate
// keys. Incremental pipelines use it as a cheap insertion guard.
func (r *Relation) CanInsert(t Tuple) error {
	_, err := r.Admit(t)
	return err
}

func (r *Relation) keyViolation(ki int, t Tuple, at int) error {
	return fmt.Errorf("relation %s: key (%s) violation: tuple %v duplicates tuple %d",
		r.schema.Name(), strings.Join(r.schema.Keys()[ki], ","), t, at)
}

// checkShape reports whether t is a tuple over s: the schema's arity,
// and every non-NULL value of its column's kind.
func checkShape(s *schema.Schema, t Tuple) error {
	if len(t) != s.Arity() {
		return fmt.Errorf("relation %s: arity %d tuple, schema wants %d",
			s.Name(), len(t), s.Arity())
	}
	for i, v := range t {
		if v.IsNull() {
			continue
		}
		if want := s.Attr(i).Kind; v.Kind() != want {
			return fmt.Errorf("relation %s: attribute %q: %s value, schema wants %s",
				s.Name(), s.Attr(i).Name, v.Kind(), want)
		}
	}
	return nil
}

// Insert files a copy of the tuple into the relation's blocks, as
// InsertAdmitted does. It fails if the arity is wrong, a value's kind
// disagrees with the schema (NULL is allowed anywhere), or a candidate
// key is violated.
func (r *Relation) Insert(t Tuple) error {
	a, err := r.Admit(t)
	if err != nil {
		return err
	}
	return r.InsertAdmitted(a)
}

// MustInsert is Insert that panics on error; for literals in tests and
// examples.
func (r *Relation) MustInsert(vals ...value.Value) {
	if err := r.Insert(Tuple(vals)); err != nil {
		panic(err)
	}
}

// InsertStrings inserts a tuple given as text, parsing each field
// according to the schema's declared kind ("null" and "" become NULL).
func (r *Relation) InsertStrings(fields ...string) error {
	if len(fields) != r.schema.Arity() {
		return fmt.Errorf("relation %s: %d fields, schema wants %d",
			r.schema.Name(), len(fields), r.schema.Arity())
	}
	t := make(Tuple, len(fields))
	for i, f := range fields {
		v, err := value.Parse(f, r.schema.Attr(i).Kind)
		if err != nil {
			return fmt.Errorf("relation %s: field %d: %w", r.schema.Name(), i, err)
		}
		t[i] = v
	}
	return r.Insert(t)
}

// LookupKey finds the tuple whose primary-key projection equals the given
// values (in primary-key attribute order). It returns the tuple index or
// -1. NULL key values never match. An image relation has no index to ask
// and scans its rows (the relation it extends answers in O(1), with the
// same position).
//
//entitylint:hotpath nolock,noobs,noio
func (r *Relation) LookupKey(keyVals ...value.Value) int {
	if len(keyVals) != len(r.keyCols[0]) {
		return -1
	}
	if r.lender != nil {
		return r.scanKey(keyVals)
	}
	kh := r.hashKey(0, keyVals, nil)
	if !kh.full {
		return -1
	}
	return r.find(0, kh.h, keyVals, nil)
}

// scanKey is LookupKey without an index: the last row whose primary-key
// columns are Equal to keyVals (a NULL equals nothing).
func (r *Relation) scanKey(keyVals []value.Value) int {
rows:
	for pos := r.Len() - 1; pos >= 0; pos-- {
		for i, c := range r.keyCols[0] {
			if !value.Equal(r.At(pos, c), keyVals[i]) {
				continue rows
			}
		}
		return pos
	}
	return -1
}

// Project returns the values of tuple t for the named attributes, in
// order.
func (r *Relation) Project(t Tuple, attrs []string) (Tuple, error) {
	out := make(Tuple, len(attrs))
	for i, a := range attrs {
		j := r.schema.Index(a)
		if j < 0 {
			return nil, fmt.Errorf("relation %s: no attribute %q", r.schema.Name(), a)
		}
		out[i] = t[j]
	}
	return out, nil
}

// Clone returns a deep copy of the relation, its tuples filed into
// blocks of its own. The copy of an image relation is an ordinary
// relation: detached from what the image extends, it holds whole rows
// and indexes its own keys.
func (r *Relation) Clone() *Relation {
	out := New(r.schema)
	out.bag = r.bag
	out.tuples = make([]Tuple, r.Len())
	var row Tuple
	for i := range out.tuples {
		row = r.TupleInto(row, i)
		out.tuples[i] = out.blocks.keep(row)
	}
	out.reindex()
	return out
}

// Equal reports whether two relations have equal schemas and the same
// multiset of tuples (order-insensitive, storage-level identity).
func (r *Relation) Equal(o *Relation) bool {
	if !r.schema.Equal(o.schema) || r.Len() != o.Len() {
		return false
	}
	counts := make(map[string]int, r.Len())
	for _, t := range r.Tuples() {
		counts[t.Key()]++
	}
	for _, t := range o.Tuples() {
		k := t.Key()
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// Sort orders tuples by the given attributes (ascending, value.Compare),
// in place. With no attributes it sorts by the whole tuple. Sorting
// re-indexes keys. An image relation refuses: its rows are tied by
// position to the tuples they extend — sort its Clone.
func (r *Relation) Sort(attrs ...string) error {
	if r.lender != nil {
		return fmt.Errorf("relation %s: sort: an image relation's rows keep the positions of the tuples they extend; sort a Clone", r.schema.Name())
	}
	idx := make([]int, 0, len(attrs))
	for _, a := range attrs {
		j := r.schema.Index(a)
		if j < 0 {
			return fmt.Errorf("relation %s: sort: no attribute %q", r.schema.Name(), a)
		}
		idx = append(idx, j)
	}
	if len(idx) == 0 {
		for j := 0; j < r.schema.Arity(); j++ {
			idx = append(idx, j)
		}
	}
	sort.SliceStable(r.tuples, func(a, b int) bool {
		ta, tb := r.tuples[a], r.tuples[b]
		for _, j := range idx {
			if c := value.Compare(ta[j], tb[j]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	r.reindex()
	return nil
}

func (r *Relation) reindex() {
	for ki, cols := range r.keyCols {
		r.keyIdx[ki] = NewPosIndex()
		for _, t := range r.tuples {
			kh := r.hashKey(ki, t, cols)
			r.keyIdx[ki].Add(kh.h, kh.full)
		}
	}
}

// String renders the relation as an aligned text table in the prototype's
// style: a header line with attribute names, a dashed rule, then one line
// per tuple with NULLs printed as "null".
func (r *Relation) String() string {
	return Format(r.schema.Name(), r.schema.AttrNames(), r.Tuples())
}

// Format renders any header + rows as the aligned text table used by the
// prototype's print utilities (§6.3).
func Format(title string, header []string, rows []Tuple) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	cells := make([][]string, len(rows))
	for ri, row := range rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("-", max(len(title), 8)))
		b.WriteByte('\n')
	}
	for i, h := range header {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], h)
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
