// Package ra keeps the one relational-algebra operator of the paper's
// matching-table construction (§4.2) that still has a caller: Rename,
// used by the relational reference match's extension path is held
// against (match/extend_test.go). The equi-join went when
// derive.ExtendWithTables began probing ILFD tables by column offset.
//
// Rename is pure: it returns a fresh relation and leaves its input
// untouched.
package ra

import (
	"fmt"

	"entityid/internal/relation"
	"entityid/internal/schema"
)

// insertUnchecked inserts via the relation's Insert, translating a key
// violation into a real error (a violation means a bug or genuinely
// conflicting data worth surfacing).
func insertUnchecked(r *relation.Relation, t relation.Tuple) error {
	if err := r.Insert(t); err != nil {
		return fmt.Errorf("ra: %w", err)
	}
	return nil
}

// newLike creates a relation over sch with the same set/bag discipline
// as src.
func newLike(src *relation.Relation, sch *schema.Schema) *relation.Relation {
	if src.IsBag() {
		return relation.NewBag(sch)
	}
	return relation.New(sch)
}

// Rename returns r with its relation renamed and attributes renamed
// according to the mapping (attributes absent from the mapping keep their
// names). Candidate keys are carried over under the new names.
func Rename(r *relation.Relation, name string, mapping map[string]string) (*relation.Relation, error) {
	old := r.Schema()
	attrs := old.Attrs()
	for i := range attrs {
		if nn, ok := mapping[attrs[i].Name]; ok {
			attrs[i].Name = nn
		}
	}
	keys := old.Keys()
	for _, k := range keys {
		for i := range k {
			if nn, ok := mapping[k[i]]; ok {
				k[i] = nn
			}
		}
	}
	sch, err := schema.New(name, attrs, keys...)
	if err != nil {
		return nil, err
	}
	out := newLike(r, sch)
	for _, t := range r.Tuples() {
		if err := insertUnchecked(out, t.Clone()); err != nil {
			return nil, err
		}
	}
	return out, nil
}
