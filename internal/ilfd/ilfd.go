// Package ilfd implements instance-level functional dependencies (ILFDs),
// the semantic constraints the paper uses to derive missing extended-key
// attribute values (§4.1, §5).
//
// An ILFD has the form
//
//	(A1=a1) ∧ … ∧ (An=an) → (B1=b1) ∧ … ∧ (Bm=bm)
//
// where each (A=a) is a proposition about a single entity: "the entity's A
// attribute has value a". Unlike a classical FD — whose violation involves
// two tuples — an ILFD is checked one tuple at a time (§4.1). Several
// ILFDs with identical antecedents combine into one formula with a
// conjunctive consequent (§5), which is why Consequent is a set here.
//
// The package provides the paper's full ILFD theory: satisfaction and
// violation over relations, Armstrong-style axioms and derived inference
// rules (§5.2), the closure X⁺_F of a set of proposition symbols, the
// inference test F ⊨ f, relational ILFD tables IM(x̄,y) (§4.2), and a
// small text format for rule files.
package ilfd

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"entityid/internal/relation"
	"entityid/internal/value"
)

// Condition is one proposition symbol: attribute Attr has value Val.
type Condition struct {
	Attr string
	Val  value.Value
}

// C is shorthand for a string-valued condition.
func C(attr, val string) Condition {
	return Condition{Attr: attr, Val: value.String(val)}
}

// Compare orders proposition symbols: by attribute, then by value
// (value.Compare, a NaN after every other float). It returns 0 exactly
// when the two are one symbol — one attribute holding one value, where
// the two float zeros are one value and so is every NaN (value.Canon).
// Every set operation here tells symbols apart by it, never through a
// string both are spelled into — whatever bytes a value holds, it cannot
// pass for a second condition.
func (c Condition) Compare(o Condition) int {
	if n := strings.Compare(c.Attr, o.Attr); n != 0 {
		return n
	}
	a, b := c.Val.Canon(), o.Val.Canon()
	switch n := value.Compare(a, b); {
	case a == b:
		return 0
	case n != 0:
		return n
	case value.Identical(b, b): // value.Compare holds a NaN level with every float
		return 1
	default:
		return -1
	}
}

// canon is the condition in the form whose == is Compare's 0: a map of
// symbols is keyed by it.
func (c Condition) canon() Condition {
	c.Val = c.Val.Canon()
	return c
}

// String renders the condition as attr=value.
func (c Condition) String() string { return c.Attr + "=" + c.Val.String() }

// HoldsIn reports whether the condition holds in tuple t of relation r:
// the attribute exists and its value Equals Val (matching-level equality,
// so a NULL attribute satisfies nothing).
func (c Condition) HoldsIn(r *relation.Relation, t relation.Tuple) bool {
	i := r.Schema().Index(c.Attr)
	return i >= 0 && value.Equal(t[i], c.Val)
}

// Conditions is a set of proposition symbols with canonical (sorted,
// deduplicated) order.
type Conditions []Condition

// Normalize sorts by Compare and removes duplicates — keeping the first
// of each symbol — in place, returning the result.
func (cs Conditions) Normalize() Conditions {
	slices.SortStableFunc(cs, Condition.Compare)
	return slices.CompactFunc(cs, sameSymbol)
}

// sameSymbol reports whether a and b are one proposition symbol.
func sameSymbol(a, b Condition) bool { return a.Compare(b) == 0 }

// Contains reports whether the set contains the proposition symbol c.
func (cs Conditions) Contains(c Condition) bool {
	return slices.ContainsFunc(cs, func(x Condition) bool { return sameSymbol(x, c) })
}

// ContainsAll reports whether every symbol of o is in cs.
func (cs Conditions) ContainsAll(o Conditions) bool {
	for _, c := range o {
		if !cs.Contains(c) {
			return false
		}
	}
	return true
}

// Union returns the normalized union of two condition sets.
func (cs Conditions) Union(o Conditions) Conditions {
	out := make(Conditions, 0, len(cs)+len(o))
	out = append(out, cs...)
	out = append(out, o...)
	return out.Normalize()
}

// Equal reports set equality (after normalization of both operands).
func (cs Conditions) Equal(o Conditions) bool {
	a := append(Conditions(nil), cs...).Normalize()
	b := append(Conditions(nil), o...).Normalize()
	return slices.EqualFunc(a, b, sameSymbol)
}

// HoldIn reports whether every condition holds in tuple t.
func (cs Conditions) HoldIn(r *relation.Relation, t relation.Tuple) bool {
	for _, c := range cs {
		if !c.HoldsIn(r, t) {
			return false
		}
	}
	return true
}

// String renders the conjunction as (a=x) ∧ (b=y).
func (cs Conditions) String() string {
	if len(cs) == 0 {
		return "⊤"
	}
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = "(" + c.String() + ")"
	}
	return strings.Join(parts, " ∧ ")
}

// ILFD is one instance-level functional dependency.
type ILFD struct {
	Antecedent Conditions
	Consequent Conditions
}

// New builds a normalized ILFD. The consequent must be non-empty; an
// empty antecedent is allowed (an unconditional fact, useful in theory
// tests) but rejected by Validate for use against relations.
func New(ante, cons Conditions) (ILFD, error) {
	if len(cons) == 0 {
		return ILFD{}, fmt.Errorf("ilfd: empty consequent")
	}
	f := ILFD{
		Antecedent: append(Conditions(nil), ante...).Normalize(),
		Consequent: append(Conditions(nil), cons...).Normalize(),
	}
	return f, nil
}

// MustNew panics on error; for literals in tests and examples.
func MustNew(ante, cons Conditions) ILFD {
	f, err := New(ante, cons)
	if err != nil {
		panic(err)
	}
	return f
}

// String renders the ILFD as (A=a) ∧ … → (B=b).
func (f ILFD) String() string {
	return f.Antecedent.String() + " → " + f.Consequent.String()
}

// Equal reports whether two ILFDs have the same antecedent and consequent
// sets.
func (f ILFD) Equal(o ILFD) bool {
	return f.Antecedent.Equal(o.Antecedent) && f.Consequent.Equal(o.Consequent)
}

// Trivial reports whether the ILFD is trivial in the sense of the
// reflexivity axiom (§5.2): its consequent is a subset of its antecedent,
// so it holds in every entity set regardless of F.
func (f ILFD) Trivial() bool {
	return f.Antecedent.ContainsAll(f.Consequent)
}

// Attrs returns the sorted set of attribute names the ILFD mentions.
func (f ILFD) Attrs() []string {
	set := map[string]bool{}
	for _, c := range f.Antecedent {
		set[c.Attr] = true
	}
	for _, c := range f.Consequent {
		set[c.Attr] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// SatisfiedBy reports whether tuple t of relation r satisfies the ILFD:
// if the antecedent holds in t, the consequent holds too. Violation
// checking involves only one tuple (§4.1).
//
// A consequent condition whose attribute is NULL in t counts as not
// holding — the tuple does not *contradict* the ILFD, but it does not
// satisfy it either; use Contradicts to distinguish.
func (f ILFD) SatisfiedBy(r *relation.Relation, t relation.Tuple) bool {
	if !f.Antecedent.HoldIn(r, t) {
		return true
	}
	return f.Consequent.HoldIn(r, t)
}

// Contradicts reports whether tuple t positively contradicts the ILFD:
// the antecedent holds and some consequent attribute has a non-NULL value
// different from the required one. A NULL consequent attribute is merely
// missing information, not a contradiction.
func (f ILFD) Contradicts(r *relation.Relation, t relation.Tuple) bool {
	if !f.Antecedent.HoldIn(r, t) {
		return false
	}
	for _, c := range f.Consequent {
		i := r.Schema().Index(c.Attr)
		if i < 0 {
			continue
		}
		v := t[i]
		if !v.IsNull() && !value.Equal(v, c.Val) {
			return true
		}
	}
	return false
}

// Set is an ordered collection of ILFDs (order matters for the
// first-match derivation mode, mirroring Prolog rule order).
type Set []ILFD

// Dedup returns the set with exact duplicates removed: of ILFDs that are
// Equal, the first is kept.
func (fs Set) Dedup() Set {
	out := make(Set, 0, len(fs))
	for _, f := range fs {
		if !slices.ContainsFunc(out, f.Equal) {
			out = append(out, f)
		}
	}
	return out
}

// SatisfiedBy reports whether every ILFD in the set is satisfied by every
// tuple of r. The paper assumes "all tuples modeling the real world are
// consistent with the ILFDs" (§4.1); this is the checker for that
// assumption.
func (fs Set) SatisfiedBy(r *relation.Relation) bool {
	return len(fs.Violations(r)) == 0
}

// Violation records a tuple that fails an ILFD.
type Violation struct {
	ILFD  ILFD
	Index int // tuple position in the relation
}

// Violations returns every (ILFD, tuple) pair where the tuple's
// antecedent holds but its consequent does not hold (missing counts as
// not holding).
func (fs Set) Violations(r *relation.Relation) []Violation {
	var out []Violation
	ts := r.Tuples()
	for _, f := range fs {
		for i, t := range ts {
			if !f.SatisfiedBy(r, t) {
				out = append(out, Violation{ILFD: f, Index: i})
			}
		}
	}
	return out
}

// Contradictions returns every (ILFD, tuple) pair where the tuple
// positively contradicts the ILFD (non-NULL wrong value).
func (fs Set) Contradictions(r *relation.Relation) []Violation {
	var out []Violation
	ts := r.Tuples()
	for _, f := range fs {
		for i, t := range ts {
			if f.Contradicts(r, t) {
				out = append(out, Violation{ILFD: f, Index: i})
			}
		}
	}
	return out
}

// CombineByAntecedent merges ILFDs with identical antecedents into single
// formulas with conjunctive consequents, the §5 normal form
// ((P→Q1) ∧ (P→Q2) ≡ P→(Q1∧Q2)). Order follows first occurrence of each
// antecedent; antecedents are compared as sets (Conditions.Equal).
func (fs Set) CombineByAntecedent() Set {
	var out Set
	for _, f := range fs {
		i := slices.IndexFunc(out, func(g ILFD) bool { return g.Antecedent.Equal(f.Antecedent) })
		if i < 0 {
			out = append(out, MustNew(f.Antecedent, f.Consequent))
			continue
		}
		out[i] = MustNew(out[i].Antecedent, out[i].Consequent.Union(f.Consequent))
	}
	return out
}
