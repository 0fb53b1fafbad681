// Package rules implements the paper's identity and distinctness rules
// (§3.2), the knowledge an entity-identification process uses to declare
// two tuples matched or unmatched.
//
// An identity rule has the form
//
//	∀ e1,e2 ∈ E:  P(e1.A1,…,e1.Am, e2.B1,…,e2.Bn) → (e1 ≡ e2)
//
// where P is a conjunction of predicates "ei.attr op ej.attr" or
// "ei.attr op value" and — crucially — P must imply e1.Ai = e2.Ai for
// every attribute Ai appearing in P. The paper's example r2
// ((e1.cuisine="Chinese") → e1 ≡ e2) is rejected by exactly this
// well-formedness check: it never constrains e2.
//
// A distinctness rule has the same predicate language with the opposite
// conclusion (e1 ≢ e2) and the weaker requirement that P involve some
// attribute from each of e1 and e2. Proposition 1 maps every ILFD to a
// distinctness rule; ToDistinctness/ILFDFromDistinctness implement both
// directions.
package rules

import (
	"fmt"
	"strings"

	"entityid/internal/ilfd"
	"entityid/internal/relation"
	"entityid/internal/value"
)

// Op is a comparison operator in a rule predicate: =, ≠, <, ≤, >, ≥
// (§3.2 allows exactly these).
type Op int

// The predicate operators.
const (
	Eq Op = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "≠"
	case Lt:
		return "<"
	case Le:
		return "≤"
	case Gt:
		return ">"
	case Ge:
		return "≥"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// eval applies the operator to two non-NULL values. NULL operands make
// every predicate false (missing information proves nothing).
func (o Op) eval(a, b value.Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	switch o {
	case Eq:
		return value.Equal(a, b)
	case Ne:
		return !value.Equal(a, b) && a.Kind() == b.Kind()
	case Lt:
		return a.Kind() == b.Kind() && value.Compare(a, b) < 0
	case Le:
		return a.Kind() == b.Kind() && value.Compare(a, b) <= 0
	case Gt:
		return a.Kind() == b.Kind() && value.Compare(a, b) > 0
	case Ge:
		return a.Kind() == b.Kind() && value.Compare(a, b) >= 0
	default:
		return false
	}
}

// Side selects which entity a predicate operand refers to.
type Side int

// The two entities of a rule.
const (
	E1 Side = 1
	E2 Side = 2
)

// Operand is either an attribute reference ei.attr or a constant.
type Operand struct {
	// Side and Attr are set for attribute references.
	Side Side
	Attr string
	// Const is set (non-NULL) for constants.
	Const value.Value
}

// Attr1 references e1.attr.
func Attr1(attr string) Operand { return Operand{Side: E1, Attr: attr} }

// Attr2 references e2.attr.
func Attr2(attr string) Operand { return Operand{Side: E2, Attr: attr} }

// Const wraps a constant value.
func Const(v value.Value) Operand { return Operand{Const: v} }

// IsConst reports whether the operand is a constant.
func (o Operand) IsConst() bool { return o.Side == 0 }

// String renders the operand.
func (o Operand) String() string {
	if o.IsConst() {
		return fmt.Sprintf("%q", o.Const.String())
	}
	return fmt.Sprintf("e%d.%s", o.Side, o.Attr)
}

// resolve fetches the operand's value given the two tuples.
func (o Operand) resolve(r1 *relation.Relation, t1 relation.Tuple, r2 *relation.Relation, t2 relation.Tuple) value.Value {
	if o.IsConst() {
		return o.Const
	}
	var r *relation.Relation
	var t relation.Tuple
	if o.Side == E1 {
		r, t = r1, t1
	} else {
		r, t = r2, t2
	}
	i := r.Schema().Index(o.Attr)
	if i < 0 {
		return value.Null
	}
	return t[i]
}

// Predicate is one comparison in a rule's conjunction.
type Predicate struct {
	Left  Operand
	Op    Op
	Right Operand
}

// String renders the predicate.
func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %s", p.Left, p.Op, p.Right)
}

// Holds evaluates the predicate over a pair of tuples.
func (p Predicate) Holds(r1 *relation.Relation, t1 relation.Tuple, r2 *relation.Relation, t2 relation.Tuple) bool {
	a := p.Left.resolve(r1, t1, r2, t2)
	b := p.Right.resolve(r1, t1, r2, t2)
	return p.Op.eval(a, b)
}

// IdentityRule concludes e1 ≡ e2 when all predicates hold.
type IdentityRule struct {
	Name  string
	Preds []Predicate
}

// DistinctnessRule concludes e1 ≢ e2 when all predicates hold.
type DistinctnessRule struct {
	Name  string
	Preds []Predicate
}

// NewIdentity validates and builds an identity rule. Well-formedness
// (§3.2): the conjunction must imply e1.A = e2.A for every attribute A
// appearing in any predicate. The implication checker recognises the two
// forms the paper's examples use:
//
//   - a direct cross predicate e1.A = e2.A, and
//   - a pair of constant predicates e1.A = v and e2.A = v with the same
//     constant (the r1 pattern: cuisine="Chinese" on both sides).
//
// Any attribute mentioned without being pinned equal on both sides makes
// the rule ill-formed (the paper's r2).
func NewIdentity(name string, preds []Predicate) (IdentityRule, error) {
	if len(preds) == 0 {
		return IdentityRule{}, fmt.Errorf("identity rule %s: no predicates", name)
	}
	if err := impliesAttrEquality(preds); err != nil {
		return IdentityRule{}, fmt.Errorf("identity rule %s: %w", name, err)
	}
	return IdentityRule{Name: name, Preds: append([]Predicate(nil), preds...)}, nil
}

// MustNewIdentity panics on error; for literals in tests and examples.
func MustNewIdentity(name string, preds []Predicate) IdentityRule {
	r, err := NewIdentity(name, preds)
	if err != nil {
		panic(err)
	}
	return r
}

// impliesAttrEquality enforces the paper's identity-rule side condition.
func impliesAttrEquality(preds []Predicate) error {
	type constPin struct {
		val value.Value
		ok  bool
	}
	crossEqual := map[string]bool{} // attr -> e1.attr = e2.attr present
	constPins := map[Side]map[string]constPin{E1: {}, E2: {}}
	mentioned := map[string]bool{}

	for _, p := range preds {
		for _, o := range []Operand{p.Left, p.Right} {
			if !o.IsConst() {
				mentioned[o.Attr] = true
			}
		}
		if p.Op != Eq {
			continue
		}
		l, r := p.Left, p.Right
		// e1.A = e2.A (either orientation).
		if !l.IsConst() && !r.IsConst() && l.Attr == r.Attr && l.Side != r.Side {
			crossEqual[l.Attr] = true
		}
		// ei.A = const (either orientation).
		if !l.IsConst() && r.IsConst() {
			constPins[l.Side][l.Attr] = constPin{val: r.Const, ok: true}
		}
		if l.IsConst() && !r.IsConst() {
			constPins[r.Side][r.Attr] = constPin{val: l.Const, ok: true}
		}
	}
	for attr := range mentioned {
		if crossEqual[attr] {
			continue
		}
		p1, p2 := constPins[E1][attr], constPins[E2][attr]
		if p1.ok && p2.ok && value.Equal(p1.val, p2.val) {
			continue
		}
		return fmt.Errorf("predicates do not imply e1.%s = e2.%s (cf. the paper's ill-formed rule r2)", attr, attr)
	}
	return nil
}

// Holds evaluates the identity rule over a pair of tuples: true means
// the rule asserts e1 ≡ e2 for this pair.
func (r IdentityRule) Holds(r1 *relation.Relation, t1 relation.Tuple, r2 *relation.Relation, t2 relation.Tuple) bool {
	for _, p := range r.Preds {
		if !p.Holds(r1, t1, r2, t2) {
			return false
		}
	}
	return true
}

// String renders the rule.
func (r IdentityRule) String() string {
	return fmt.Sprintf("%s: %s → e1 ≡ e2", r.Name, formatPreds(r.Preds))
}

// NewDistinctness validates and builds a distinctness rule. The §3.2
// side condition is weaker than for identity rules: P must involve at
// least one attribute of each of e1 and e2.
func NewDistinctness(name string, preds []Predicate) (DistinctnessRule, error) {
	if len(preds) == 0 {
		return DistinctnessRule{}, fmt.Errorf("distinctness rule %s: no predicates", name)
	}
	has := map[Side]bool{}
	for _, p := range preds {
		for _, o := range []Operand{p.Left, p.Right} {
			if !o.IsConst() {
				has[o.Side] = true
			}
		}
	}
	if !has[E1] || !has[E2] {
		return DistinctnessRule{}, fmt.Errorf("distinctness rule %s: predicates must involve attributes of both e1 and e2", name)
	}
	return DistinctnessRule{Name: name, Preds: append([]Predicate(nil), preds...)}, nil
}

// MustNewDistinctness panics on error.
func MustNewDistinctness(name string, preds []Predicate) DistinctnessRule {
	r, err := NewDistinctness(name, preds)
	if err != nil {
		panic(err)
	}
	return r
}

// Holds evaluates the distinctness rule: true means the rule asserts
// e1 ≢ e2 for this pair.
func (r DistinctnessRule) Holds(r1 *relation.Relation, t1 relation.Tuple, r2 *relation.Relation, t2 relation.Tuple) bool {
	for _, p := range r.Preds {
		if !p.Holds(r1, t1, r2, t2) {
			return false
		}
	}
	return true
}

// String renders the rule.
func (r DistinctnessRule) String() string {
	return fmt.Sprintf("%s: %s → e1 ≢ e2", r.Name, formatPreds(r.Preds))
}

func formatPreds(preds []Predicate) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = "(" + p.String() + ")"
	}
	return strings.Join(parts, " ∧ ")
}

// ToDistinctness implements the "only if" direction of Proposition 1:
// the ILFD (A1=a1) ∧ … ∧ (An=an) → (B=b) becomes, for each consequent
// condition, the distinctness rule
//
//	(e1.A1=a1) ∧ … ∧ (e1.An=an) ∧ (e2.B ≠ b) → (e1 ≢ e2).
//
// Multi-consequent ILFDs yield one rule per consequent condition. An
// ILFD with an empty antecedent (an unconditional fact, which ilfd.New
// admits) has no such form — a distinctness rule must involve
// attributes of both entities — and yields none.
func ToDistinctness(f ilfd.ILFD) []DistinctnessRule {
	if len(f.Antecedent) == 0 {
		return nil
	}
	var out []DistinctnessRule
	for _, cons := range f.Consequent {
		preds := make([]Predicate, 0, len(f.Antecedent)+1)
		for _, a := range f.Antecedent {
			preds = append(preds, Predicate{Left: Attr1(a.Attr), Op: Eq, Right: Const(a.Val)})
		}
		preds = append(preds, Predicate{Left: Attr2(cons.Attr), Op: Ne, Right: Const(cons.Val)})
		name := fmt.Sprintf("dist(%s)", f.String())
		out = append(out, MustNewDistinctness(name, preds))
	}
	return out
}

// ILFDFromDistinctness implements the "if" direction of Proposition 1:
// a distinctness rule of the Prop.-1 shape — e1-side constant equalities
// plus a single e2-side constant inequality — converts back to the ILFD
// whose antecedent is the e1 conjunction and whose consequent negates
// the inequality. Rules of any other shape return ok=false.
func ILFDFromDistinctness(r DistinctnessRule) (ilfd.ILFD, bool) {
	var ante ilfd.Conditions
	var cons ilfd.Conditions
	for _, p := range r.Preds {
		l, rt := p.Left, p.Right
		// Normalize orientation: attribute on the left.
		if l.IsConst() && !rt.IsConst() {
			l, rt = rt, l
		}
		if l.IsConst() || !rt.IsConst() {
			return ilfd.ILFD{}, false
		}
		switch {
		case p.Op == Eq && l.Side == E1:
			ante = append(ante, ilfd.Condition{Attr: l.Attr, Val: rt.Const})
		case p.Op == Ne && l.Side == E2:
			if len(cons) > 0 {
				return ilfd.ILFD{}, false
			}
			cons = ilfd.Conditions{{Attr: l.Attr, Val: rt.Const}}
		default:
			return ilfd.ILFD{}, false
		}
	}
	if len(ante) == 0 || len(cons) != 1 {
		return ilfd.ILFD{}, false
	}
	f, err := ilfd.New(ante, cons)
	if err != nil {
		return ilfd.ILFD{}, false
	}
	return f, true
}

// KeyEquivalence builds the identity rule "agree on every attribute of
// key ⇒ same entity", the classical key-equivalence rule of §2.2 (and
// the extended-key equivalence rule of §4.1 when key is an extended
// key). Attribute names are shared between the two sides; callers with
// differently-named attributes should rename first (see the ek package
// for correspondence-aware construction).
func KeyEquivalence(name string, key []string) (IdentityRule, error) {
	if len(key) == 0 {
		return IdentityRule{}, fmt.Errorf("identity rule %s: empty key", name)
	}
	preds := make([]Predicate, 0, len(key))
	for _, a := range key {
		preds = append(preds, Predicate{Left: Attr1(a), Op: Eq, Right: Attr2(a)})
	}
	return NewIdentity(name, preds)
}
