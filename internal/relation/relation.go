// Package relation implements in-memory relations: ordered collections of
// tuples over a schema, with candidate-key enforcement and deterministic
// iteration. Relations are the substrate every other package operates on —
// the paper assumes "the data model used is relational and real-world
// entities of the same type can be represented as tuples in relations"
// (§3.1).
//
// Key enforcement deliberately skips NULLs: the extended relations R′ and
// S′ of §4.2 carry NULL in attributes the source relation never modeled,
// and the integrated table T_RS may hold NULLs even inside extended-key
// attributes. Candidate keys are therefore checked with storage-level
// identity over fully non-NULL key projections only.
//
// R′ and S′ themselves are image relations (NewImage): row i is the
// extended image of tuple i of the relation they extend, so they hold no
// key index of their own — the extended relation's index is the one
// index, and its Admit the one key guard — and they Adopt the image they
// are given instead of copying it.
package relation

import (
	"fmt"
	"sort"
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

// Key encodes the tuple (or a projection of it) as a map key.
func (t Tuple) Key() string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(v.Key())
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
	tuples []Tuple
	// keyCols holds, per candidate key, the column offsets of its
	// attributes — resolved once, so key projection indexes the tuple
	// instead of copying the schema's keys and looking each name up.
	keyCols [][]int
	// keyIdx maps candidate-key ordinal -> key-projection string -> tuple
	// position, for O(1) duplicate detection and key lookups.
	keyIdx []map[string]int
	// bag disables duplicate detection (NewBag).
	bag bool
	// image marks an image relation (NewImage): keyIdx is nil.
	image bool
}

// New creates an empty relation with the given schema.
func New(s *schema.Schema) *Relation {
	keys := s.Keys()
	r := &Relation{
		schema:  s,
		keyCols: make([][]int, len(keys)),
		keyIdx:  make([]map[string]int, len(keys)),
	}
	for ki, key := range keys {
		r.keyCols[ki] = make([]int, len(key))
		for i, a := range key {
			r.keyCols[ki][i] = s.Index(a)
		}
		r.keyIdx[ki] = make(map[string]int)
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

// NewImage creates an empty image relation: one whose row i is derived
// from — begins with, under renamed attributes — tuple i of another
// relation, the way §4.2's R′ extends R. The schema's candidate keys are
// the extended relation's, which has admitted every tuple an image is
// made of; an image relation therefore keeps no key index and guards no
// key. Rows join it through Adopt. What the missing index changes:
// LookupKey answers by scanning, Sort is refused (position is what ties
// a row to the tuple it extends), and Clone returns an ordinary relation
// — a deep copy with a key index of its own, free to be sorted.
func NewImage(s *schema.Schema) *Relation {
	r := New(s)
	r.image, r.keyIdx = true, nil
	return r
}

// IsImage reports whether the relation was created with NewImage.
func (r *Relation) IsImage() bool { return r.image }

// Adopt appends a row to an image relation without copying it: the
// relation takes the tuple over, and the caller must not write to it
// afterwards. The row's shape is checked (a derived value has its
// column's kind); no key is, see NewImage.
func (r *Relation) Adopt(t Tuple) error {
	if !r.image {
		return fmt.Errorf("relation %s: Adopt on a relation that is not an image", r.schema.Name())
	}
	if err := CheckShape(r.schema, t); err != nil {
		return err
	}
	r.tuples = append(r.tuples, t)
	return nil
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *schema.Schema { return r.schema }

// IsBag reports whether the relation was created with NewBag (no
// candidate-key enforcement).
func (r *Relation) IsBag() bool { return r.bag }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuple returns the tuple at position i (not a copy; callers must not
// mutate it).
func (r *Relation) Tuple(i int) Tuple { return r.tuples[i] }

// Tuples returns the tuples in insertion order. The slice is shared;
// callers must not mutate it.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Value returns tuple i's value for the named attribute.
func (r *Relation) Value(i int, attr string) (value.Value, error) {
	j := r.schema.Index(attr)
	if j < 0 {
		return value.Null, fmt.Errorf("relation %s: no attribute %q", r.schema.Name(), attr)
	}
	return r.tuples[i][j], nil
}

// MustValue is Value that panics on unknown attributes.
func (r *Relation) MustValue(i int, attr string) value.Value {
	v, err := r.Value(i, attr)
	if err != nil {
		panic(err)
	}
	return v
}

// keyProjection returns the encoded projection of t onto the key columns
// cols, and whether every key attribute is non-NULL (NULL-containing
// projections are not indexed, mirroring SQL's treatment of NULLs in
// unique constraints and the paper's extended relations).
func keyProjection(t Tuple, cols []int) (string, bool) {
	if len(cols) == 1 {
		v := t[cols[0]]
		return v.Key(), !v.IsNull()
	}
	var b strings.Builder
	for i, c := range cols {
		v := t[c]
		if v.IsNull() {
			return "", false
		}
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(v.Key())
	}
	return b.String(), true
}

// Admission is a tuple a relation has checked and not yet inserted:
// Admit's verdict kept, with the key projections it was reached on, so
// InsertAdmitted files the tuple without checking its shape or building
// a key string again. It is good for the relation that gave it, until
// that relation next changes.
type Admission struct {
	r *Relation
	t Tuple
	// projs holds, per candidate key, the tuple's encoded projection, ""
	// where it has a NULL (not indexed); at is the position the tuple
	// will take.
	projs []string
	at    int
}

// Tuple returns the admitted tuple.
func (a Admission) Tuple() Tuple { return a.t }

// By reports whether r gave the admission.
func (a Admission) By(r *Relation) bool { return a.r == r }

// Admit checks that the relation can take the tuple — arity, value kinds
// and every candidate key — without changing anything. On an image
// relation it fails: rows join one through Adopt.
func (r *Relation) Admit(t Tuple) (Admission, error) {
	if r.image {
		return Admission{}, fmt.Errorf("relation %s: an image relation takes rows through Adopt", r.schema.Name())
	}
	if err := CheckShape(r.schema, t); err != nil {
		return Admission{}, err
	}
	// Every key is checked before any is indexed; a full projection is
	// never the empty string.
	projs := make([]string, len(r.keyCols))
	for ki, cols := range r.keyCols {
		proj, full := keyProjection(t, cols)
		if !full {
			continue
		}
		if at, dup := r.keyIdx[ki][proj]; dup && !r.bag {
			return Admission{}, r.keyViolation(ki, t, at)
		}
		projs[ki] = proj
	}
	return Admission{r: r, t: t, projs: projs, at: len(r.tuples)}, nil
}

// InsertAdmitted appends a copy of an admitted tuple under the key
// projections it was admitted on. It fails, changing nothing, if the
// admission is another relation's or the relation has changed since.
func (r *Relation) InsertAdmitted(a Admission) error {
	if a.r != r || a.at != len(r.tuples) {
		return fmt.Errorf("relation %s: stale admission: given at %d tuples, the relation holds %d", r.schema.Name(), a.at, len(r.tuples))
	}
	r.tuples = append(r.tuples, a.t.Clone())
	for ki, proj := range a.projs {
		if proj != "" {
			r.keyIdx[ki][proj] = a.at
		}
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

// CheckShape reports whether t is a tuple over s: the schema's arity,
// and every non-NULL value of its column's kind.
func CheckShape(s *schema.Schema, t Tuple) error {
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

// Insert appends a copy of the tuple. It fails if the arity is wrong, a
// value's kind disagrees with the schema (NULL is allowed anywhere), or a
// candidate key is violated.
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
	if r.image {
		return r.scanKey(keyVals)
	}
	var b strings.Builder
	for i, v := range keyVals {
		if v.IsNull() {
			return -1
		}
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(v.Key())
	}
	if pos, ok := r.keyIdx[0][b.String()]; ok {
		return pos
	}
	return -1
}

// scanKey is LookupKey without an index: the last row whose primary-key
// columns are Equal to keyVals (a NULL equals nothing).
func (r *Relation) scanKey(keyVals []value.Value) int {
rows:
	for pos := len(r.tuples) - 1; pos >= 0; pos-- {
		for i, c := range r.keyCols[0] {
			if !value.Equal(r.tuples[pos][c], keyVals[i]) {
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

// Clone returns a deep copy of the relation. The copy of an image
// relation is an ordinary relation: detached from what the image
// extends, it indexes its own keys.
func (r *Relation) Clone() *Relation {
	out := New(r.schema)
	out.bag = r.bag
	out.tuples = make([]Tuple, len(r.tuples))
	for i, t := range r.tuples {
		out.tuples[i] = t.Clone()
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
	for _, t := range r.tuples {
		counts[t.Key()]++
	}
	for _, t := range o.tuples {
		counts[t.Key()]--
		if counts[t.Key()] < 0 {
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
	if r.image {
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
	for ki := range r.keyIdx {
		r.keyIdx[ki] = make(map[string]int)
	}
	for pos, t := range r.tuples {
		for ki, cols := range r.keyCols {
			if proj, full := keyProjection(t, cols); full {
				r.keyIdx[ki][proj] = pos
			}
		}
	}
}

// String renders the relation as an aligned text table in the prototype's
// style: a header line with attribute names, a dashed rule, then one line
// per tuple with NULLs printed as "null".
func (r *Relation) String() string {
	return Format(r.schema.Name(), r.schema.AttrNames(), r.tuples)
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
