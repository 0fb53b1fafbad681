package ilfd

import (
	"fmt"
	"sort"

	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// Table is a relational representation of a family of uniform ILFDs
// (§4.2): ILFDs of the form (A1=a1) ∧ … ∧ (An=an) → (B=b) whose
// antecedent attributes Ā and consequent attribute B are the same across
// the family are stored as rows of a relation IM(A1,…,An,B). Table 8 of
// the paper stores I1–I4 as IM(speciality, cuisine).
type Table struct {
	rel  *relation.Relation
	from []string // antecedent attributes, in schema order
	to   string   // consequent attribute
}

// NewTable creates an empty ILFD table deriving attribute `to` from
// antecedent attributes `from`. Kinds describe the attribute domains, in
// from-then-to order; pass nil for all-string.
func NewTable(name string, from []string, to string, kinds []value.Kind) (*Table, error) {
	if len(from) == 0 {
		return nil, fmt.Errorf("ilfd table %s: no antecedent attributes", name)
	}
	if to == "" {
		return nil, fmt.Errorf("ilfd table %s: empty consequent attribute", name)
	}
	if kinds == nil {
		kinds = make([]value.Kind, len(from)+1)
		for i := range kinds {
			kinds[i] = value.KindString
		}
	}
	if len(kinds) != len(from)+1 {
		return nil, fmt.Errorf("ilfd table %s: %d kinds for %d attributes", name, len(kinds), len(from)+1)
	}
	attrs := make([]schema.Attribute, 0, len(from)+1)
	for i, a := range from {
		if a == to {
			return nil, fmt.Errorf("ilfd table %s: consequent %q also antecedent", name, to)
		}
		attrs = append(attrs, schema.Attribute{Name: a, Kind: kinds[i]})
	}
	attrs = append(attrs, schema.Attribute{Name: to, Kind: kinds[len(from)]})
	// The antecedent attributes form the key: one ILFD per antecedent
	// value combination, making the table functional by construction.
	sch, err := schema.New(name, attrs, append([]string(nil), from...))
	if err != nil {
		return nil, err
	}
	return &Table{rel: relation.New(sch), from: append([]string(nil), from...), to: to}, nil
}

// MustNewTable panics on error; for literals in tests and examples.
func MustNewTable(name string, from []string, to string, kinds []value.Kind) *Table {
	t, err := NewTable(name, from, to, kinds)
	if err != nil {
		panic(err)
	}
	return t
}

// From returns the antecedent attribute names.
func (t *Table) From() []string { return append([]string(nil), t.from...) }

// To returns the consequent attribute name.
func (t *Table) To() string { return t.to }

// Relation exposes the underlying relation (for joins and printing).
func (t *Table) Relation() *relation.Relation { return t.rel }

// Len returns the number of stored ILFDs.
func (t *Table) Len() int { return t.rel.Len() }

// Add stores the ILFD (from[0]=vals[0]) ∧ … → (to=last val). The key on
// the antecedent attributes rejects two ILFDs with the same antecedent
// and different consequents.
func (t *Table) Add(vals ...value.Value) error {
	if len(vals) != len(t.from)+1 {
		return fmt.Errorf("ilfd table %s: %d values, want %d", t.rel.Schema().Name(), len(vals), len(t.from)+1)
	}
	for i, v := range vals {
		if v.IsNull() {
			return fmt.Errorf("ilfd table %s: NULL in position %d (ILFDs relate concrete values)",
				t.rel.Schema().Name(), i)
		}
	}
	return t.rel.Insert(relation.Tuple(vals))
}

// MustAdd panics on error.
func (t *Table) MustAdd(vals ...value.Value) {
	if err := t.Add(vals...); err != nil {
		panic(err)
	}
}

// ILFDs expands the table back into its member ILFDs, in row order. The
// expansion is the inverse of FromSet for uniform families.
func (t *Table) ILFDs() Set {
	out := make(Set, 0, t.rel.Len())
	for _, row := range t.rel.Tuples() {
		ante := make(Conditions, len(t.from))
		for i, a := range t.from {
			ante[i] = Condition{Attr: a, Val: row[i]}
		}
		cons := Conditions{{Attr: t.to, Val: row[len(t.from)]}}
		out = append(out, MustNew(ante, cons))
	}
	return out
}

// Lookup derives the consequent value for the given antecedent values,
// reporting ok=false when no stored ILFD matches.
func (t *Table) Lookup(vals ...value.Value) (value.Value, bool) {
	i := t.rel.LookupKey(vals...)
	if i < 0 {
		return value.Null, false
	}
	return t.rel.At(i, len(t.from)), true
}

// signature groups uniform ILFDs: same antecedent attribute list (sorted)
// and same single consequent attribute.
func signature(f ILFD) (from []string, to string, ok bool) {
	if len(f.Consequent) != 1 || len(f.Antecedent) == 0 {
		return nil, "", false
	}
	to = f.Consequent[0].Attr
	seen := map[string]bool{}
	for _, c := range f.Antecedent {
		if seen[c.Attr] || c.Attr == to {
			// Two conditions on one attribute (unsatisfiable antecedent) or
			// a self-dependency cannot be stored relationally.
			return nil, "", false
		}
		seen[c.Attr] = true
		from = append(from, c.Attr)
	}
	sort.Strings(from)
	return from, to, true
}

// FromSet partitions a set of single-consequent ILFDs into uniform
// tables, one per (antecedent attributes, consequent attribute)
// signature, plus the remainder that does not fit the relational form
// (multi-consequent ILFDs are split first). This implements the paper's
// observation that "for the second category of useful ILFDs, it may be
// storage efficient to store the ILFDs as relations" (§4.2).
func FromSet(fs Set, kindOf func(attr string) value.Kind) (tables []*Table, rest Set, err error) {
	var split Set
	for _, f := range fs {
		if len(f.Consequent) > 1 {
			for _, c := range f.Consequent {
				split = append(split, MustNew(f.Antecedent, Conditions{c}))
			}
		} else {
			split = append(split, f)
		}
	}
	bySig := map[string]*Table{}
	var order []string
	for _, f := range split {
		from, to, ok := signature(f)
		if !ok {
			rest = append(rest, f)
			continue
		}
		sig := fmt.Sprintf("%v->%s", from, to)
		tab := bySig[sig]
		if tab == nil {
			kinds := make([]value.Kind, 0, len(from)+1)
			for _, a := range from {
				kinds = append(kinds, kindOf(a))
			}
			kinds = append(kinds, kindOf(to))
			name := fmt.Sprintf("IM(%s;%s)", joinComma(from), to)
			tab, err = NewTable(name, from, to, kinds)
			if err != nil {
				return nil, nil, err
			}
			bySig[sig] = tab
			order = append(order, sig)
		}
		vals := make([]value.Value, 0, len(from)+1)
		for _, a := range from {
			for _, c := range f.Antecedent {
				if c.Attr == a {
					vals = append(vals, c.Val)
					break
				}
			}
		}
		vals = append(vals, f.Consequent[0].Val)
		if err := tab.Add(vals...); err != nil {
			// Two ILFDs with the same antecedent but different consequent
			// values: functionally inconsistent, surface it.
			return nil, nil, fmt.Errorf("ilfd: inconsistent family: %w", err)
		}
	}
	for _, sig := range order {
		tables = append(tables, bySig[sig])
	}
	return tables, rest, nil
}

func joinComma(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}
