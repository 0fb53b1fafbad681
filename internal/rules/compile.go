// Rule compilation: the engine-facing evaluation layer. An interpreted
// rule resolves each operand's attribute name to a column offset through
// Schema().Index on every evaluation; over an |R|×|S| sweep that lookup
// dominates. Compile binds a rule to a concrete (e1-schema, e2-schema)
// pair once, after which Holds works on raw tuple slices with no map
// traffic. Semantics are identical to the interpreted path: an operand
// whose attribute is absent from its schema resolves to NULL, and NULL
// operands make every predicate false.

package rules

import (
	"sort"

	"entityid/internal/relation"
	"entityid/internal/schema"
	"entityid/internal/value"
)

// compiledOperand is an operand with its attribute reference resolved to
// a column offset (-1 when the schema lacks the attribute).
type compiledOperand struct {
	constVal value.Value
	isConst  bool
	e2       bool // references e2's tuple rather than e1's
	idx      int
}

func compileOperand(o Operand, s1, s2 *schema.Schema) compiledOperand {
	if o.IsConst() {
		return compiledOperand{constVal: o.Const, isConst: true}
	}
	s, e2 := s1, false
	if o.Side == E2 {
		s, e2 = s2, true
	}
	return compiledOperand{e2: e2, idx: s.Index(o.Attr)}
}

func (o compiledOperand) value(t1, t2 relation.Tuple) value.Value {
	if o.isConst {
		return o.constVal
	}
	t := t1
	if o.e2 {
		t = t2
	}
	if o.idx < 0 || o.idx >= len(t) {
		return value.Null
	}
	return t[o.idx]
}

// CompiledPredicate is a predicate with both operands resolved.
type CompiledPredicate struct {
	left, right compiledOperand
	op          Op
}

// Holds evaluates the predicate over raw tuples laid out per the schemas
// the predicate was compiled against (t1 for e1, t2 for e2).
func (p CompiledPredicate) Holds(t1, t2 relation.Tuple) bool {
	return p.op.eval(p.left.value(t1, t2), p.right.value(t1, t2))
}

func compilePreds(preds []Predicate, s1, s2 *schema.Schema) []CompiledPredicate {
	out := make([]CompiledPredicate, len(preds))
	for i, p := range preds {
		out[i] = CompiledPredicate{
			left:  compileOperand(p.Left, s1, s2),
			op:    p.Op,
			right: compileOperand(p.Right, s1, s2),
		}
	}
	return out
}

func allHold(preds []CompiledPredicate, t1, t2 relation.Tuple) bool {
	for _, p := range preds {
		if !p.Holds(t1, t2) {
			return false
		}
	}
	return true
}

// CompiledIdentityRule is an identity rule bound to an (e1, e2) schema
// pair. The zero value holds for nothing.
type CompiledIdentityRule struct {
	Name  string
	preds []CompiledPredicate
}

// Compile resolves the rule's operands against s1 (e1's schema) and s2
// (e2's schema). Evaluating the opposite orientation requires a second
// compilation with the schemas swapped.
func (r IdentityRule) Compile(s1, s2 *schema.Schema) CompiledIdentityRule {
	return CompiledIdentityRule{Name: r.Name, preds: compilePreds(r.Preds, s1, s2)}
}

// Holds reports whether every predicate holds for (t1, t2), with t1 laid
// out per the compile-time e1 schema and t2 per the e2 schema.
func (c CompiledIdentityRule) Holds(t1, t2 relation.Tuple) bool {
	return allHold(c.preds, t1, t2)
}

// CompiledDistinctnessRule is a distinctness rule bound to an (e1, e2)
// schema pair.
type CompiledDistinctnessRule struct {
	Name  string
	preds []CompiledPredicate
}

// Compile resolves the rule's operands against s1 (e1's schema) and s2
// (e2's schema).
func (r DistinctnessRule) Compile(s1, s2 *schema.Schema) CompiledDistinctnessRule {
	return CompiledDistinctnessRule{Name: r.Name, preds: compilePreds(r.Preds, s1, s2)}
}

// Holds reports whether every predicate holds for (t1, t2).
func (c CompiledDistinctnessRule) Holds(t1, t2 relation.Tuple) bool {
	return allHold(c.preds, t1, t2)
}

// Pin is a necessary condition read off a compiled rule: the rule can
// hold only for a pair whose e1 tuple (e2 when E2 is set) carries, in
// column Col, a value Equal to the constant Val. An evaluator that files
// rules by their pins looks a pair's candidates up by the values its
// tuples hold instead of walking every rule.
type Pin struct {
	E2  bool
	Col int
	Val value.Value
}

// Pin returns the rule's first "attribute = constant" predicate (either
// way round) as a Pin; pinned is false when the conjunction has none.
// A pin nothing can meet — the attribute is absent from its schema, or
// the constant equals nothing (NULL, NaN) — comes back with Col -1: the
// rule holds for no pair.
func (c CompiledDistinctnessRule) Pin() (pin Pin, pinned bool) {
	for _, p := range c.preds {
		attr, k := p.left, p.right
		if attr.isConst {
			attr, k = k, attr
		}
		if p.op != Eq || attr.isConst || !k.isConst {
			continue
		}
		if attr.idx < 0 || !value.Equal(k.constVal, k.constVal) {
			return Pin{Col: -1}, true
		}
		return Pin{E2: attr.e2, Col: attr.idx, Val: k.constVal}, true
	}
	return Pin{}, false
}

// SidePredicates partitions the compiled rule's conjunction by the
// tuples each predicate reads: predicates over e1's tuple only, over
// e2's tuple only, and over both (cross predicates). Constant-only
// predicates land in e1Only. Grid sweeps use the partition to evaluate
// the single-side predicates once per row/column instead of once per
// cell; the conjunction holds on a cell iff all three groups hold.
func (c CompiledDistinctnessRule) SidePredicates() (e1Only, e2Only, cross []CompiledPredicate) {
	return splitBySide(c.preds)
}

func splitBySide(preds []CompiledPredicate) (e1Only, e2Only, cross []CompiledPredicate) {
	for _, p := range preds {
		reads1, reads2 := false, false
		for _, o := range []compiledOperand{p.left, p.right} {
			if o.isConst {
				continue
			}
			if o.e2 {
				reads2 = true
			} else {
				reads1 = true
			}
		}
		switch {
		case reads1 && reads2:
			cross = append(cross, p)
		case reads2:
			e2Only = append(e2Only, p)
		default:
			e1Only = append(e1Only, p)
		}
	}
	return e1Only, e2Only, cross
}

// HoldsSingle evaluates a single-side (or constant-only) predicate with
// the unused side's tuple absent; operands referencing the absent side
// resolve to NULL and fail, so calling it on a cross predicate is safe
// but always false.
func (p CompiledPredicate) HoldsSingle(side Side, t relation.Tuple) bool {
	if side == E1 {
		return p.Holds(t, nil)
	}
	return p.Holds(nil, t)
}

// EqualityAttrs returns, sorted, the attributes A for which the rule
// carries a direct cross predicate e1.A = e2.A. For a well-formed
// identity rule the conjunction pins every mentioned attribute equal
// across the pair, so these attributes are safe hash-join (blocking)
// keys: any pair the rule matches agrees, non-NULL, on all of them.
func (r IdentityRule) EqualityAttrs() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range r.Preds {
		if p.Op != Eq || p.Left.IsConst() || p.Right.IsConst() {
			continue
		}
		if p.Left.Attr == p.Right.Attr && p.Left.Side != p.Right.Side && !seen[p.Left.Attr] {
			seen[p.Left.Attr] = true
			out = append(out, p.Left.Attr)
		}
	}
	sort.Strings(out)
	return out
}
