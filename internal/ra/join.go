package ra

import (
	"fmt"
	"strings"

	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// JoinKind selects inner or outer join behaviour.
type JoinKind int

// The join kinds. Outer joins pad the unmatched side with NULL; the full
// outer join is the ⟗ operator the paper uses for the integrated table.
const (
	Inner JoinKind = iota
	LeftOuter
	RightOuter
	FullOuter
)

// String returns the conventional name of the join kind.
func (k JoinKind) String() string {
	switch k {
	case Inner:
		return "inner"
	case LeftOuter:
		return "left-outer"
	case RightOuter:
		return "right-outer"
	case FullOuter:
		return "full-outer"
	default:
		return fmt.Sprintf("join(%d)", int(k))
	}
}

// On pairs an attribute of the left relation with an attribute of the
// right relation for an equi-join condition.
type On struct {
	Left, Right string
}

// Join computes the equi-join of a and b on the given attribute pairs.
// Equality is matching-level (value.Equal): a NULL on either side never
// satisfies a join condition, so outer-join padding is the only way NULL
// reaches the output of an inner column.
//
// The result schema concatenates a's attributes then b's; name collisions
// are disambiguated by prefixing with the source relation name
// ("R.attr"). The full attribute set is the declared key.
func Join(a, b *relation.Relation, name string, kind JoinKind, conds []On) (*relation.Relation, error) {
	if len(conds) == 0 {
		return nil, fmt.Errorf("ra: join: no conditions")
	}
	for _, c := range conds {
		if !a.Schema().Has(c.Left) {
			return nil, fmt.Errorf("ra: join: %s has no attribute %q", a.Schema().Name(), c.Left)
		}
		if !b.Schema().Has(c.Right) {
			return nil, fmt.Errorf("ra: join: %s has no attribute %q", b.Schema().Name(), c.Right)
		}
	}
	sch, err := concatSchema(a, b, name)
	if err != nil {
		return nil, err
	}
	// Joins of bags are bags; joins of sets may still produce repeated
	// rows only through NULL-keyed tuples, which the key index skips.
	out := relation.New(sch)
	if a.IsBag() || b.IsBag() {
		out = relation.NewBag(sch)
	}

	// Hash join on the condition columns. NULL projections are never
	// hashed, enforcing non_null_eq.
	type bucket []int
	index := make(map[string]bucket, b.Len())
	for j, tb := range b.Tuples() {
		k, ok := joinKey(b, tb, rightAttrs(conds))
		if !ok {
			continue
		}
		index[k] = append(index[k], j)
	}

	matchedRight := make([]bool, b.Len())
	nullsA := nullTuple(a.Schema().Arity())
	nullsB := nullTuple(b.Schema().Arity())

	for _, ta := range a.Tuples() {
		k, ok := joinKey(a, ta, leftAttrs(conds))
		var partners bucket
		if ok {
			partners = index[k]
		}
		if len(partners) == 0 {
			if kind == LeftOuter || kind == FullOuter {
				if err := insertUnchecked(out, concatTuple(ta, nullsB)); err != nil {
					return nil, err
				}
			}
			continue
		}
		for _, j := range partners {
			matchedRight[j] = true
			if err := insertUnchecked(out, concatTuple(ta, b.Tuple(j))); err != nil {
				return nil, err
			}
		}
	}
	if kind == RightOuter || kind == FullOuter {
		for j, tb := range b.Tuples() {
			if !matchedRight[j] {
				if err := insertUnchecked(out, concatTuple(nullsA, tb)); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// concatSchema builds the joined schema: a's attributes then b's, with
// collisions prefixed by relation name. The whole attribute set is the
// key (keys are not preserved across joins), and key uniqueness is
// effectively disabled because joined rows routinely carry NULLs.
func concatSchema(a, b *relation.Relation, name string) (*schema.Schema, error) {
	used := map[string]int{}
	var attrs []schema.Attribute
	add := func(rel *relation.Relation, at schema.Attribute) {
		n := at.Name
		if _, clash := used[n]; clash || b.Schema().Has(n) && a.Schema().Has(n) {
			n = rel.Schema().Name() + "." + at.Name
		}
		// Extremely defensive: if even the prefixed name clashes, add a
		// counter suffix.
		base := n
		for i := 2; ; i++ {
			if _, clash := used[n]; !clash {
				break
			}
			n = fmt.Sprintf("%s#%d", base, i)
		}
		used[n] = 1
		attrs = append(attrs, schema.Attribute{Name: n, Kind: at.Kind})
	}
	for _, at := range a.Schema().Attrs() {
		add(a, at)
	}
	for _, at := range b.Schema().Attrs() {
		add(b, at)
	}
	return schema.New(name, attrs)
}

func concatTuple(a, b relation.Tuple) relation.Tuple {
	out := make(relation.Tuple, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func nullTuple(n int) relation.Tuple {
	t := make(relation.Tuple, n)
	for i := range t {
		t[i] = value.Null
	}
	return t
}

func leftAttrs(conds []On) []string {
	out := make([]string, len(conds))
	for i, c := range conds {
		out[i] = c.Left
	}
	return out
}

func rightAttrs(conds []On) []string {
	out := make([]string, len(conds))
	for i, c := range conds {
		out[i] = c.Right
	}
	return out
}

// joinKey encodes t's projection onto attrs; ok is false if any value is
// NULL (NULL never participates in a join).
func joinKey(r *relation.Relation, t relation.Tuple, attrs []string) (string, bool) {
	var b strings.Builder
	for i, a := range attrs {
		v := t[r.Schema().Index(a)]
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
